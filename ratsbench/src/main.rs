//! In-process half of the layered benchmark (see `BENCH.md`).
//!
//! `run.py` drives the `campaign` CLI for the batch and served workloads
//! and calls this binary for what has to run inside one process: the
//! `schedule-large` workload (`Pipeline::schedule` calls), set-up timing,
//! reference results for the output checks, and the traced replays that
//! attribute wall time to each layer's public functions.
//!
//! ```text
//! ratsbench setup <spec.json> <reps> <I/N,I/N,...>
//! ratsbench replay <spec.json> <I/N,I/N,...> <out> <trace 0|1> [max-tasks]
//! ratsbench schedule <seed> <seconds> <full|smoke> <out> <trace 0|1>
//! ratsbench reference <specs.jsonl> <out> <trace 0|1>
//! ```
//!
//! Each command prints one JSON object on stdout and writes its record
//! lines to `<out>`; traced commands write their spans to
//! `<out>.spans.jsonl`.

mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rats::daggen::{fft_dag, irregular_dag, layered_dag, AppFamily, DagParams};
use rats::experiments::campaign::RunResult;
use rats::experiments::{ExperimentSpec, JobCoords, RunRecord, ShardSpec};
use rats::model::CostParams;
use rats::platform::{ClusterSpec, Platform};
use rats::sched::{allocate, AllocParams, Allocation, MappingStrategy, Schedule, Scheduler};
use rats::sim::{simulate, SimOutcome};
use rats::Pipeline;
use serde::Value;

use trace::Tracer;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("ratsbench: {message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| -> &str {
        args.get(i)
            .map(String::as_str)
            .unwrap_or_else(|| fail("missing argument (see the usage in src/main.rs)"))
    };
    let number = |i: usize| -> u64 {
        arg(i)
            .parse()
            .unwrap_or_else(|_| fail(format_args!("argument {i} must be a number")))
    };
    let flag = |i: usize| number(i) != 0;
    match arg(0) {
        "setup" => cmd_setup(arg(1), number(2) as usize, &parse_shards(arg(3))),
        "replay" => cmd_replay(
            arg(1),
            &parse_shards(arg(2)),
            arg(3),
            flag(4),
            args.get(5).map(|_| number(5) as usize),
        ),
        "schedule" => cmd_schedule(
            number(1),
            arg(2)
                .parse()
                .unwrap_or_else(|_| fail("seconds must be a number")),
            arg(3) == "smoke",
            arg(4),
            flag(5),
        ),
        "reference" => cmd_reference(arg(1), arg(2), flag(3)),
        other => fail(format_args!("unknown command `{other}`")),
    }
}

fn load_spec(path: &str) -> ExperimentSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {path}: {e}")));
    let spec = ExperimentSpec::from_json(&text).unwrap_or_else(|e| fail(e));
    spec.validate().unwrap_or_else(|e| fail(e));
    spec
}

fn parse_shards(text: &str) -> Vec<ShardSpec> {
    text.split(',')
        .map(|s| {
            let (i, n) = s
                .split_once('/')
                .unwrap_or_else(|| fail(format_args!("shard `{s}` is not I/N")));
            let shard = ShardSpec::new(
                i.parse().unwrap_or_else(|_| fail("bad shard index")),
                n.parse().unwrap_or_else(|_| fail("bad shard count")),
            );
            shard.validate().unwrap_or_else(|e| fail(e));
            shard
        })
        .collect()
}

fn strategies(spec: &ExperimentSpec) -> Vec<MappingStrategy> {
    spec.strategies
        .iter()
        .map(|s| s.to_strategy().unwrap_or_else(|e| fail(e)))
        .collect()
}

fn platform(spec: &ExperimentSpec, name: &str) -> Platform {
    Platform::from_spec(&spec.cluster_spec(name).unwrap_or_else(|e| fail(e)))
}

fn write_lines(path: &str, lines: &[String]) {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| fail(format_args!("cannot write {path}: {e}")));
}

/// Peak resident set of this process (Linux `VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mapping-engine counters, which the engine keeps whether or not phase
/// timing is on, in the order of [`Counters::NAMES`].
#[derive(Clone, Copy, Default)]
struct Counters([u64; 7]);

impl Counters {
    const NAMES: [&'static str; 7] = [
        "tasks_mapped",
        "estimates",
        "estimates_pruned",
        "memo_hits",
        "memo_misses",
        "redist_hits",
        "redist_misses",
    ];

    fn read() -> Self {
        use rats::sched::telemetry as t;
        Self([
            t::TASKS.get(),
            t::ESTIMATES.get(),
            t::ESTIMATES_PRUNED.get(),
            t::MEMO_HITS.get(),
            t::MEMO_MISSES.get(),
            t::REDIST_HITS.get(),
            t::REDIST_MISSES.get(),
        ])
    }

    /// Adds what the counters gained since `before`.
    fn add_since(&mut self, before: Self) {
        let now = Self::read();
        for (sum, (n, b)) in self.0.iter_mut().zip(now.0.iter().zip(before.0)) {
            *sum += n - b;
        }
    }

    fn put(&self, o: &mut Value) {
        for (name, v) in Self::NAMES.iter().zip(self.0) {
            o.insert(name, &v);
        }
    }
}

/// Runs each block of a replay with tracing on and, in a traced replay,
/// once more with tracing off, so one replay yields both the spans and the
/// tracing overhead.
///
/// Which of the two runs of a block goes first follows the Thue–Morse
/// sequence (plain, traced, traced, plain, traced, plain, plain, ...), so
/// the machine's drift falls on both alike, and so does any pattern in the
/// blocks (`schedule-large` alternates irregular and layered DAGs, which a
/// strict alternation would align with the order). The median over blocks
/// of traced time / untraced time, minus one, is the overhead.
/// Blocks are long (a shard, the calls on one DAG, a spec): when each call
/// ran twice back to back, both runs were ~8% faster than a single one,
/// which skewed layer times against the `campaign run` wall. Each run has
/// its own tracer and its own state `S` (a warm cache), so neither run
/// sees the other's work. The engine counters sum over the traced runs
/// only. Untraced, each block runs once with a tracer that records nothing.
struct Twin<S = ()> {
    on: bool,
    /// Tracer and state of the traced runs (of the only run, untraced).
    traced: (Tracer, S),
    plain: (Tracer, S),
    traced_s: f64,
    plain_s: f64,
    /// Traced time / untraced time of each block.
    ratios: Vec<f64>,
    counters: Counters,
}

impl<S: Default> Twin<S> {
    fn new(on: bool) -> Self {
        Self {
            on,
            traced: (Tracer::new(on), S::default()),
            plain: (Tracer::new(false), S::default()),
            traced_s: 0.0,
            plain_s: 0.0,
            ratios: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Runs `f` (twice when traced) and returns the traced run's result.
    fn run<R>(&mut self, mut f: impl FnMut(&mut Tracer, &mut S) -> R) -> R {
        let plain_first = self.ratios.len().count_ones().is_multiple_of(2);
        let mut plain_s = 0.0;
        if self.on && plain_first {
            plain_s = timed(|| f(&mut self.plain.0, &mut self.plain.1));
        }
        let before = Counters::read();
        let started = Instant::now();
        let r = f(&mut self.traced.0, &mut self.traced.1);
        let traced_s = started.elapsed().as_secs_f64();
        self.counters.add_since(before);
        if self.on && !plain_first {
            plain_s = timed(|| f(&mut self.plain.0, &mut self.plain.1));
        }
        self.traced_s += traced_s;
        if self.on {
            self.plain_s += plain_s;
            self.ratios.push(traced_s / plain_s);
        }
        r
    }

    /// The tracing figures of a replay whose wall clock ran from `started`:
    /// the replay's wall without the untraced runs, both halves' time, the
    /// overhead, the span self times and the traced runs' engine counters.
    fn put(&self, o: &mut Value, started: Instant) {
        let mut ratios = self.ratios.clone();
        ratios.sort_by(f64::total_cmp);
        let overhead = ratios.get(ratios.len() / 2).map_or(0.0, |r| r - 1.0);
        let self_s = self
            .traced
            .0
            .self_seconds()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Float(v)))
            .collect();
        o.insert("wall_s", &(started.elapsed().as_secs_f64() - self.plain_s))
            .insert("traced_s", &self.traced_s)
            .insert("plain_s", &self.plain_s)
            .insert("blocks", &ratios.len())
            .insert("overhead_ratio", &overhead)
            .insert("self_s", &Value::Table(self_s));
        self.counters.put(o);
    }

    fn write_spans(&self, out: &str) {
        self.traced
            .0
            .write(&format!("{out}.spans.jsonl"))
            .unwrap_or_else(|e| fail(format_args!("cannot write spans: {e}")));
    }
}

/// Seconds `f` takes; its result is dropped after the clock stops.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let started = Instant::now();
    let r = f();
    let took = started.elapsed().as_secs_f64();
    drop(r);
    took
}

/// Simulator figures summed over the jobs of one replay.
#[derive(Default)]
struct SimStats {
    runs: u64,
    max_run_s: f64,
    edges: u64,
    free_edges: u64,
    network_bytes: f64,
    irregular_s: f64,
}

impl SimStats {
    fn of(jobs: &[Evaluated]) -> Self {
        let mut s = Self::default();
        for j in jobs {
            s.runs += 1;
            s.max_run_s = s.max_run_s.max(j.sim_s);
            s.edges += j.outcome.edge_stats.len() as u64;
            s.free_edges += j.outcome.edge_stats.iter().filter(|e| e.was_free()).count() as u64;
            s.network_bytes += j.outcome.network_bytes;
            if j.family == AppFamily::Irregular {
                s.irregular_s += j.sim_s;
            }
        }
        s
    }

    fn put(&self, o: &mut Value) {
        o.insert("sim_runs", &self.runs)
            .insert("sim_max_run_s", &self.max_run_s)
            .insert("sim_edges", &self.edges)
            .insert("sim_free_edges", &self.free_edges)
            .insert("sim_network_bytes", &self.network_bytes)
            .insert("sim_irregular_s", &self.irregular_s);
    }
}

/// One evaluated job, kept until the untimed validation pass.
struct Evaluated {
    /// How failures name this job: the grid job id, or (warm replays)
    /// `spec index << 32 | job id`.
    key: u64,
    /// Index of the job's platform in the replay's platform list.
    cluster: usize,
    scenario: usize,
    family: AppFamily,
    /// Seconds `simulate` took.
    sim_s: f64,
    /// The record line `campaign run` writes for this job.
    record: String,
    schedule: Schedule,
    outcome: SimOutcome,
}

/// Checks every schedule and simulated execution and reports the keys of
/// the jobs that failed (`invalid`) and the first failure.
fn validate(
    o: &mut Value,
    jobs: &[Evaluated],
    dags: &[&rats::dag::TaskGraph],
    platforms: &[Platform],
) {
    let mut failed = Vec::new();
    let mut first = String::new();
    for j in jobs {
        let dag = dags[j.scenario];
        let platform = &platforms[j.cluster];
        let result = j
            .schedule
            .validate(dag, platform)
            .and_then(|()| j.outcome.validate(dag, &j.schedule, platform));
        if let Err(e) = result {
            failed.push(j.key);
            if first.is_empty() {
                first = e.to_string();
            }
        }
    }
    o.insert("invalid", &failed).insert("first_invalid", &first);
}

fn print(o: &Value) {
    println!(
        "{}",
        serde_json::to_string(o).expect("a report always serializes")
    );
}

/// Times `f` `reps` times (at least once); returns the seconds of each
/// call and the last result.
fn time_setups<R>(reps: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut samples = Vec::new();
    loop {
        let started = Instant::now();
        let r = f();
        samples.push(started.elapsed().as_secs_f64());
        if samples.len() >= reps {
            return (samples, r);
        }
    }
}

/// Set-up of a batch run, timed `reps` times: spec load, population
/// generation and platform build — everything before the first job. Also
/// reports the population's size, the grid's size and the job ids of
/// `shards`.
fn cmd_setup(spec_path: &str, reps: usize, shards: &[ShardSpec]) {
    let (samples, (spec, population)) = time_setups(reps, || {
        let spec = load_spec(spec_path);
        let population = spec.scenarios();
        let platforms: Vec<Platform> = spec.clusters.iter().map(|c| platform(&spec, c)).collect();
        black_box(&platforms);
        (spec, population)
    });
    let grid = spec.grid();
    let shard_jobs: Vec<Vec<u64>> = shards
        .iter()
        .map(|&s| grid.shard_jobs(s).map(|j| j.0).collect())
        .collect();
    let mut o = Value::table();
    o.insert("setup_s", &samples)
        .insert("scenarios", &population.len())
        .insert(
            "tasks",
            &population.iter().map(|s| s.dag.num_tasks()).sum::<usize>(),
        )
        .insert(
            "edges",
            &population.iter().map(|s| s.dag.num_edges()).sum::<usize>(),
        )
        .insert("grid_jobs", &grid.len())
        .insert("shard_jobs", &shard_jobs);
    print(&o);
}

/// Replays the jobs of `shards` through the layers' public functions, the
/// way `campaign run` executes each shard: generate the population, build
/// each cluster's platform, allocate (step one) once per scenario the
/// shard touches, then map (step two) and simulate every job. With
/// `max_tasks`, only jobs on scenarios with at most that many tasks run.
/// Traced, every shard runs twice (see [`Twin`]).
fn cmd_replay(
    spec_path: &str,
    shards: &[ShardSpec],
    out: &str,
    traced: bool,
    max_tasks: Option<usize>,
) {
    let spec = load_spec(spec_path);
    let mut twin: Twin = Twin::new(traced);
    let mut evaluated = Vec::new();
    let mut population = Vec::new();
    let (mut alloc_calls, mut gen_tasks, mut gen_edges) = (0, 0, 0);
    let started = Instant::now();
    for &shard in shards {
        let (scenarios, jobs, allocs) =
            twin.run(|tr, ()| replay_shard(tr, &spec, shard, max_tasks));
        gen_tasks += scenarios.iter().map(|s| s.dag.num_tasks()).sum::<usize>();
        gen_edges += scenarios.iter().map(|s| s.dag.num_edges()).sum::<usize>();
        alloc_calls += allocs;
        evaluated.extend(jobs);
        population = scenarios;
    }
    let mut o = Value::table();
    twin.put(&mut o, started);
    let platforms: Vec<Platform> = spec.clusters.iter().map(|c| platform(&spec, c)).collect();
    let dags: Vec<_> = population.iter().map(|s| &s.dag).collect();
    validate(&mut o, &evaluated, &dags, &platforms);
    let lines: Vec<String> = evaluated.iter().map(|j| j.record.clone()).collect();
    write_lines(out, &lines);
    twin.write_spans(out);
    o.insert("jobs", &lines.len())
        .insert("alloc_calls", &alloc_calls)
        .insert("gen_tasks", &gen_tasks)
        .insert("gen_edges", &gen_edges);
    SimStats::of(&evaluated).put(&mut o);
    print(&o);
}

/// One shard of [`cmd_replay`]: its population, its evaluated jobs and
/// the number of step-one calls.
fn replay_shard(
    tr: &mut Tracer,
    spec: &ExperimentSpec,
    shard: ShardSpec,
    max_tasks: Option<usize>,
) -> (Vec<rats::daggen::Scenario>, Vec<Evaluated>, usize) {
    let strategies = strategies(spec);
    let grid = spec.grid();
    let (scenarios, _) = tr.leaf("daggen.scenarios", shard.index as u64, || spec.scenarios());
    let jobs: Vec<_> = grid
        .shard_jobs(shard)
        .filter(|&j| {
            max_tasks.is_none_or(|m| scenarios[grid.coords(j).scenario].dag.num_tasks() <= m)
        })
        .collect();
    let mut evaluated = Vec::new();
    let mut alloc_calls = 0;
    for (ci, name) in spec.clusters.iter().enumerate() {
        let cluster_jobs: Vec<_> = jobs
            .iter()
            .copied()
            .filter(|&j| grid.coords(j).cluster == ci)
            .collect();
        let Some(&first) = cluster_jobs.first() else {
            continue;
        };
        let (platform, _) = tr.leaf("platform.build", first.0, || platform(spec, name));
        let mut allocs: BTreeMap<usize, Allocation> = BTreeMap::new();
        for &job in &cluster_jobs {
            let n = grid.coords(job).scenario;
            if let std::collections::btree_map::Entry::Vacant(slot) = allocs.entry(n) {
                let (alloc, _) = tr.leaf("sched.allocate", job.0, || {
                    allocate(&scenarios[n].dag, &platform, AllocParams::default())
                });
                slot.insert(alloc);
                alloc_calls += 1;
            }
        }
        for &job in &cluster_jobs {
            let c = grid.coords(job);
            let scenario = &scenarios[c.scenario];
            evaluated.push(evaluate(
                tr,
                spec,
                job.0,
                c.strategy,
                strategies[c.strategy],
                (ci, &platform),
                scenario,
                &allocs[&c.scenario],
            ));
        }
    }
    (scenarios, evaluated, alloc_calls)
}

/// Step two and the simulation of job `job` (strategy `strategy`, the
/// `index`-th of the spec, on the platform at `cluster.0`) under one `job`
/// span, and its record line.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    tr: &mut Tracer,
    spec: &ExperimentSpec,
    job: u64,
    index: usize,
    strategy: MappingStrategy,
    cluster: (usize, &Platform),
    scenario: &rats::daggen::Scenario,
    alloc: &Allocation,
) -> Evaluated {
    let (ci, platform) = cluster;
    let span = tr.begin("job", job);
    let (schedule, _) = tr.leaf("sched.map", job, || {
        Scheduler::new(platform)
            .strategy(strategy)
            .schedule_with_allocation(&scenario.dag, alloc)
    });
    let (outcome, took) = tr.leaf("sim.simulate", job, || {
        simulate(&scenario.dag, &schedule, platform)
    });
    tr.end(span);
    let result = RunResult {
        scenario_id: scenario.id,
        family: scenario.family,
        makespan: outcome.makespan,
        work: outcome.total_work,
    };
    let record = RunRecord::new(
        job,
        platform.name(),
        spec.strategies[index].clone(),
        spec.seed,
        &result,
    )
    .to_jsonl();
    Evaluated {
        key: job,
        cluster: ci,
        scenario: scenario.id,
        family: scenario.family,
        sim_s: took.as_secs_f64(),
        record,
        schedule,
        outcome,
    }
}

/// The `schedule-large` inputs: irregular and layered DAGs from a few
/// hundred to 1500 tasks, three of each shape and size, and FFT graphs up to
/// k = 512, all drawn from `seed`. Several mid-size DAGs rather than one
/// huge one keep any single call from dominating the run.
fn schedule_dags(seed: u64, smoke: bool) -> Vec<(String, rats::dag::TaskGraph)> {
    let cost = CostParams::paper();
    let sizes: &[u32] = if smoke {
        &[60, 120]
    } else {
        &[250, 500, 1000, 1500]
    };
    let ffts: &[u32] = if smoke {
        &[16, 32]
    } else {
        &[64, 128, 256, 512]
    };
    let mut out = Vec::new();
    let mut next = 0usize;
    let mut seed_of = || {
        next += 1;
        rats::daggen::scenario_seed(seed, next)
    };
    for &n in sizes {
        for copy in 0..3 {
            let p = DagParams {
                n,
                width: 0.5,
                regularity: 0.5,
                density: 0.5,
                jump: 2,
            };
            out.push((
                format!("irregular-n{n}-{copy}"),
                irregular_dag(&p, &cost, seed_of()),
            ));
            let p = DagParams::layered(n, 0.5, 0.5, 0.5);
            out.push((
                format!("layered-n{n}-{copy}"),
                layered_dag(&p, &cost, seed_of()),
            ));
        }
    }
    for &k in ffts {
        out.push((format!("fft-k{k}"), fft_dag(k, &cost, seed_of())));
    }
    out
}

/// Whether one more whole pass, as long as the mean pass so far, still
/// ends within `seconds` of `started`. Runs measure whole passes only, so
/// every pass weighs every input equally.
fn fits_another_pass(started: Instant, passes: u32, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + elapsed / f64::from(passes) <= seconds
}

/// The four mapping policies `schedule-large` exercises.
fn schedule_policies() -> [MappingStrategy; 4] {
    [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.5, 0.5),
        MappingStrategy::rats_time_cost(0.5, true),
        MappingStrategy::rats_combined(0.5, 0.5, 0.5),
    ]
}

/// A bit-exact digest of a schedule (placements, estimates, order).
fn fingerprint(s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in &s.entries {
        eat(e.task.index() as u64);
        e.procs.iter().for_each(|p| eat(u64::from(p)));
        eat(e.est_start.to_bits());
        eat(e.est_finish.to_bits());
    }
    s.order.iter().for_each(|t| eat(t.index() as u64));
    h
}

/// The `schedule-large` workload: schedule-only `Pipeline::schedule` calls
/// (step one + step two, no simulation), each timed, in whole passes over
/// every (DAG, cluster, policy) for at most `seconds` (at least one pass).
///
/// Traced, it makes one untraced pass through `Pipeline::schedule`, then
/// one replay of every call through `allocate` +
/// `Scheduler::schedule_with_allocation` (the calls on each DAG twice, see
/// [`Twin`]), and checks that the two agree bit for bit.
fn cmd_schedule(seed: u64, seconds: f64, smoke: bool, out: &str, traced: bool) {
    const SETUP_REPS: usize = 15;
    let clusters = [ClusterSpec::grillon(), ClusterSpec::grelon()];
    let policies = schedule_policies();
    let mut twin: Twin = Twin::new(traced);
    let reps = if traced { 1 } else { SETUP_REPS };
    let (setup, (dags, took)) = time_setups(reps, || {
        twin.traced
            .0
            .leaf("daggen.generate", 0, || schedule_dags(seed, smoke))
    });
    let gen_s = took.as_secs_f64();
    let platforms: Vec<Platform> = clusters.iter().map(Platform::from_spec).collect();
    let pipelines: Vec<Vec<Pipeline>> = clusters
        .iter()
        .map(|c| {
            policies
                .iter()
                .map(|&p| Pipeline::from_spec(c).strategy(p))
                .collect()
        })
        .collect();
    let calls: Vec<(usize, usize, usize)> = (0..dags.len())
        .flat_map(|d| {
            (0..clusters.len()).flat_map(move |c| (0..policies.len()).map(move |p| (d, c, p)))
        })
        .collect();
    let smallest = (0..dags.len())
        .min_by_key(|&d| dags[d].1.num_tasks())
        .expect("the DAG set is never empty");
    for row in &pipelines {
        for pipe in row {
            black_box(pipe.schedule(&dags[smallest].1));
        }
    }

    let mut latencies = Vec::new();
    let mut first: Vec<Schedule> = Vec::new();
    let mut nondeterministic = std::collections::BTreeSet::new();
    let started = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || (!traced && fits_another_pass(started, passes, seconds)) {
        for (i, &(d, c, p)) in calls.iter().enumerate() {
            let t = Instant::now();
            let schedule = black_box(pipelines[c][p].schedule(black_box(&dags[d].1)));
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            if passes == 0 {
                first.push(schedule);
            } else if fingerprint(&schedule) != fingerprint(&first[i]) {
                nondeterministic.insert(i);
            }
        }
        passes += 1;
    }
    let mut o = Value::table();
    o.insert("setup_s", &setup)
        .insert("gen_s", &gen_s)
        .insert("dags", &dags.len())
        .insert(
            "gen_tasks",
            &dags.iter().map(|d| d.1.num_tasks()).sum::<usize>(),
        )
        .insert(
            "gen_edges",
            &dags.iter().map(|d| d.1.num_edges()).sum::<usize>(),
        )
        .insert("calls", &latencies.len())
        .insert("passes", &passes)
        .insert("pass_wall_s", &started.elapsed().as_secs_f64())
        .insert("latency_ms", &latencies);

    if traced {
        let started = Instant::now();
        let per_dag = clusters.len() * policies.len();
        for (b, block) in calls.chunks(per_dag).enumerate() {
            let schedules = twin.run(|tr, ()| {
                let mut out = Vec::new();
                for (j, &(d, c, p)) in block.iter().enumerate() {
                    let i = (b * per_dag + j) as u64;
                    let dag = &dags[d].1;
                    let call = tr.begin("call", i);
                    let (alloc, _) = tr.leaf("sched.allocate", i, || {
                        allocate(dag, &platforms[c], AllocParams::default())
                    });
                    let (schedule, _) = tr.leaf("sched.map", i, || {
                        Scheduler::new(&platforms[c])
                            .strategy(policies[p])
                            .schedule_with_allocation(dag, &alloc)
                    });
                    tr.end(call);
                    out.push(schedule);
                }
                out
            });
            for (j, schedule) in schedules.iter().enumerate() {
                let i = b * per_dag + j;
                if fingerprint(schedule) != fingerprint(&first[i]) {
                    nondeterministic.insert(i);
                }
            }
        }
        twin.put(&mut o, started);
        o.insert("alloc_calls", &calls.len());
    }

    let mut invalid = Vec::new();
    let mut first_invalid = String::new();
    let mut lines = Vec::new();
    for (i, (&(d, c, p), schedule)) in calls.iter().zip(&first).enumerate() {
        let dag = &dags[d].1;
        if let Err(e) = schedule.validate(dag, &platforms[c]) {
            invalid.push(i);
            if first_invalid.is_empty() {
                first_invalid = e.to_string();
            }
        }
        lines.push(format!(
            "{} {} {} {:?} {:?}",
            dags[d].0,
            platforms[c].name(),
            policies[p].name(),
            schedule.makespan_estimate(),
            schedule.total_work(dag, &platforms[c])
        ));
    }
    write_lines(out, &lines);
    twin.write_spans(out);
    o.insert("invalid", &invalid)
        .insert("first_invalid", &first_invalid)
        .insert(
            "nondeterministic",
            &nondeterministic.into_iter().collect::<Vec<_>>(),
        )
        .insert("peak_rss_mb", &peak_rss_mb());
    SimStats::default().put(&mut o);
    print(&o);
}

/// Records of specs run in-process with `ExperimentSpec::run` (one thread),
/// in job order — what the server must stream for the same specs.
///
/// Traced, it also replays the specs warm (population generated once,
/// each allocation computed once, as a resident server holds them), with
/// spans around each layer call, and checks that replay against `run`.
fn cmd_reference(specs_path: &str, out: &str, traced: bool) {
    let text = std::fs::read_to_string(specs_path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {specs_path}: {e}")));
    let specs: Vec<ExperimentSpec> = text
        .lines()
        .map(|l| {
            let mut spec = ExperimentSpec::from_json(l).unwrap_or_else(|e| fail(e));
            spec.threads = Some(1);
            spec
        })
        .collect();
    let mut lines = Vec::new();
    let mut per_spec: Vec<Vec<String>> = Vec::new();
    for spec in &specs {
        let outcome = spec.run().unwrap_or_else(|e| fail(e));
        let grid = spec.grid();
        let mut records = Vec::new();
        for (ci, cluster) in outcome.clusters.iter().enumerate() {
            for (si, algo) in cluster.results.iter().enumerate() {
                for run in &algo.runs {
                    let job = grid.id(JobCoords {
                        cluster: ci,
                        scenario: run.scenario_id,
                        strategy: si,
                    });
                    records.push((
                        job.0,
                        RunRecord::new(
                            job.0,
                            &cluster.cluster,
                            spec.strategies[si].clone(),
                            spec.seed,
                            run,
                        )
                        .to_jsonl(),
                    ));
                }
            }
        }
        records.sort();
        let records: Vec<String> = records.into_iter().map(|r| r.1).collect();
        lines.extend(records.iter().cloned());
        per_spec.push(records);
    }
    write_lines(out, &lines);

    let mut o = Value::table();
    o.insert("specs", &specs.len())
        .insert("records", &lines.len());
    if traced {
        let mut twin: Twin<Warm> = Twin::new(true);
        let started = Instant::now();
        let mut spec_s = Vec::new();
        let mut evaluated = Vec::new();
        let mut mismatched = Vec::new();
        for (k, spec) in specs.iter().enumerate() {
            let layer_s = twin.traced_s;
            let jobs = twin.run(|tr, warm| warm.replay(tr, k, spec));
            spec_s.push(twin.traced_s - layer_s);
            if jobs.iter().map(|j| &j.record).ne(&per_spec[k]) {
                mismatched.push(k);
            }
            evaluated.extend(jobs);
        }
        twin.put(&mut o, started);
        let warm = &twin.traced.1;
        let dags: Vec<_> = warm.population.iter().map(|s| &s.dag).collect();
        validate(&mut o, &evaluated, &dags, &warm.platforms);
        twin.write_spans(out);
        SimStats::of(&evaluated).put(&mut o);
        o.insert("spec_s", &spec_s)
            .insert("alloc_calls", &warm.allocs.len())
            .insert(
                "gen_tasks",
                &dags.iter().map(|d| d.num_tasks()).sum::<usize>(),
            )
            .insert(
                "gen_edges",
                &dags.iter().map(|d| d.num_edges()).sum::<usize>(),
            )
            .insert("mismatched", &mismatched);
    }
    print(&o);
}

/// What a resident server holds once warm: one population, each cluster's
/// platform, and each (platform, scenario) allocation, all computed once.
/// All specs replayed through it must share one population (suite and
/// seed).
#[derive(Default)]
struct Warm {
    population: Vec<rats::daggen::Scenario>,
    names: Vec<String>,
    platforms: Vec<Platform>,
    allocs: BTreeMap<(usize, usize), Allocation>,
}

impl Warm {
    /// Runs spec `k` the way a resident server does: every job is mapped
    /// and simulated, and the warm state is filled on first use.
    fn replay(&mut self, tr: &mut Tracer, k: usize, spec: &ExperimentSpec) -> Vec<Evaluated> {
        if self.population.is_empty() {
            self.population = tr.leaf("daggen.scenarios", k as u64, || spec.scenarios()).0;
        }
        let strategies = strategies(spec);
        let grid = spec.grid();
        let mut jobs = Vec::new();
        for job in grid.shard_jobs(ShardSpec::default()) {
            let c = grid.coords(job);
            let name = &spec.clusters[c.cluster];
            let pi = match self.names.iter().position(|n| n == name) {
                Some(i) => i,
                None => {
                    let (built, _) = tr.leaf("platform.build", job.0, || platform(spec, name));
                    self.platforms.push(built);
                    self.names.push(name.clone());
                    self.platforms.len() - 1
                }
            };
            let plat = &self.platforms[pi];
            let scenario = &self.population[c.scenario];
            let alloc = self.allocs.entry((pi, c.scenario)).or_insert_with(|| {
                tr.leaf("sched.allocate", job.0, || {
                    allocate(&scenario.dag, plat, AllocParams::default())
                })
                .0
            });
            let mut e = evaluate(
                tr,
                spec,
                job.0,
                c.strategy,
                strategies[c.strategy],
                (pi, plat),
                scenario,
                alloc,
            );
            e.key |= (k as u64) << 32;
            jobs.push(e);
        }
        jobs
    }
}
