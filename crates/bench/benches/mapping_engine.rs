//! Before/after throughput of the step-two mapping engine.
//!
//! Measures the incremental engine (`Scheduler::schedule_with_allocation`)
//! against the retained naive reference driver
//! (`Scheduler::reference_schedule_with_allocation`, `reference` feature)
//! **in the same run**, on large random, FFT and Strassen DAGs, and writes
//! the numbers to `BENCH_mapping.json` at the workspace root so the perf
//! trajectory is recorded per commit.
//!
//! Run modes:
//!
//! * `cargo bench -p rats-bench --bench mapping_engine` — full sizes
//!   (n ≈ 1k–100k random DAGs, FFT up to ~5.6k tasks; the naive reference
//!   is skipped above [`REFERENCE_CEILING`] tasks, where its quadratic cost
//!   stops being measurable in reasonable time);
//! * `… -- --test` — CI smoke scale: tiny DAGs, one repetition, same code
//!   paths (used by the bench-smoke CI step so the bench bit-rots loudly);
//! * `… -- --check` — regression gate: medium scale, incremental engine
//!   only, fails (exit 1) if throughput drops below a conservative floor or
//!   the mapping loop starts allocating per task again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rats_dag::TaskGraph;
use rats_daggen::{fft_dag, irregular_dag, strassen_dag, DagParams};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, Platform};
use rats_sched::{allocate, AllocParams, Allocation, MappingStrategy, Scheduler};

/// Heap-op counting allocator: every `alloc`/`realloc` bumps a counter, so
/// the bench can report *allocations per mapped task* alongside wall time.
/// The relaxed atomic add is a handful of cycles per heap call — and the
/// whole point of the measurement is that the mapping loop makes almost
/// none, so it cannot distort the timings it rides along with.
struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap operations (allocations + reallocations) during one closure run.
fn count_heap_ops<T>(run: impl FnOnce() -> T) -> u64 {
    let before = HEAP_OPS.load(Ordering::Relaxed);
    let out = run();
    let ops = HEAP_OPS.load(Ordering::Relaxed) - before;
    drop(out);
    ops
}

/// Above this task count the quadratic naive reference is not measured —
/// one 100k-task run would take minutes for a number whose trend the
/// smaller cases already pin down.
const REFERENCE_CEILING: usize = 20_000;

struct Case {
    name: String,
    dag: TaskGraph,
}

fn random_case(n: u32, seed: u64) -> Case {
    let params = DagParams {
        n,
        width: 0.5,
        regularity: 0.5,
        density: 0.5,
        jump: 2,
    };
    Case {
        name: format!("random_{n}"),
        dag: irregular_dag(&params, &CostParams::paper(), seed),
    }
}

fn cases(test_scale: bool) -> Vec<Case> {
    if test_scale {
        vec![
            random_case(120, 0xF00D),
            Case {
                name: "fft_4".into(),
                dag: fft_dag(4, &CostParams::paper(), 0xBEEF),
            },
            Case {
                name: "strassen".into(),
                dag: strassen_dag(&CostParams::paper(), 0xCAFE),
            },
        ]
    } else {
        vec![
            random_case(1_000, 0xF00D),
            random_case(5_000, 0xF00D),
            random_case(10_000, 0xF00D),
            // Above REFERENCE_CEILING: incremental engine only.
            random_case(100_000, 0xF00D),
            Case {
                // 2k−1 recursion tasks + k·log₂k butterflies = 1151 tasks.
                name: "fft_128".into(),
                dag: fft_dag(128, &CostParams::paper(), 0xBEEF),
            },
            Case {
                // 5631 tasks.
                name: "fft_512".into(),
                dag: fft_dag(512, &CostParams::paper(), 0xBEEF),
            },
            Case {
                // Strassen's graph is fixed at 25 tasks: kept as the small
                // structured outlier of the set.
                name: "strassen".into(),
                dag: strassen_dag(&CostParams::paper(), 0xCAFE),
            },
        ]
    }
}

/// Best-of-`reps` wall time of one full mapping step, in seconds.
fn time_mapping<F: Fn() -> rats_sched::Schedule>(reps: usize, run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let schedule = run();
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(schedule.makespan_estimate());
        best = best.min(elapsed);
    }
    best
}

struct Measurement {
    case: String,
    policy: String,
    tasks: usize,
    edges: usize,
    /// `None` when the case is above [`REFERENCE_CEILING`].
    reference_s: Option<f64>,
    incremental_s: f64,
    /// Heap operations per task during one incremental mapping run. The
    /// absolute count is dominated by one-time setup and geometric arena
    /// growth (a few thousand ops regardless of DAG size), so this ratio
    /// falls towards zero as DAGs grow — the steady-state loop itself
    /// does not allocate per task (the `--check` gate pins the marginal
    /// cost between two sizes at zero).
    allocs_per_task: f64,
}

impl Measurement {
    fn speedup(&self) -> Option<f64> {
        self.reference_s.map(|r| r / self.incremental_s)
    }

    fn to_json(&self) -> String {
        let fmt_opt = |v: Option<f64>, digits: usize| match v {
            Some(v) => format!("{v:.digits$}"),
            None => "null".into(),
        };
        format!(
            "    {{\"case\": \"{}\", \"policy\": \"{}\", \"tasks\": {}, \"edges\": {}, \
             \"reference_s\": {}, \"incremental_s\": {:.6}, \
             \"reference_tasks_per_s\": {}, \"incremental_tasks_per_s\": {:.1}, \
             \"allocs_per_task\": {:.4}, \"speedup\": {}}}",
            self.case,
            self.policy,
            self.tasks,
            self.edges,
            fmt_opt(self.reference_s, 6),
            self.incremental_s,
            fmt_opt(self.reference_s.map(|r| self.tasks as f64 / r), 1),
            self.tasks as f64 / self.incremental_s,
            self.allocs_per_task,
            fmt_opt(self.speedup(), 2)
        )
    }
}

fn measure(
    case: &Case,
    platform: &Platform,
    alloc: &Allocation,
    test_scale: bool,
) -> Vec<Measurement> {
    let n = case.dag.num_tasks();
    // The naive engine is quadratic: one repetition is plenty at 5k+ tasks.
    let reps = if test_scale { 1 } else { 3 };
    let ref_reps = if test_scale || n >= 2_000 { 1 } else { reps };
    let run_reference = test_scale || n <= REFERENCE_CEILING;
    let mut out = Vec::new();
    for strategy in [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_time_cost(0.5, true),
    ] {
        let scheduler = Scheduler::new(platform).strategy(strategy);
        let incremental_s = time_mapping(reps, || {
            scheduler.schedule_with_allocation(&case.dag, alloc)
        });
        let heap_ops = count_heap_ops(|| scheduler.schedule_with_allocation(&case.dag, alloc));
        let reference_s = run_reference.then(|| {
            time_mapping(ref_reps, || {
                scheduler.reference_schedule_with_allocation(&case.dag, alloc)
            })
        });
        let m = Measurement {
            case: case.name.clone(),
            policy: strategy.name().to_string(),
            tasks: n,
            edges: case.dag.num_edges(),
            reference_s,
            incremental_s,
            allocs_per_task: heap_ops as f64 / n as f64,
        };
        let ref_col = match m.reference_s {
            Some(r) => format!("{:>10.2?}", std::time::Duration::from_secs_f64(r)),
            None => format!("{:>10}", "-"),
        };
        let speedup_col = match m.speedup() {
            Some(s) => format!("{s:>6.2}x"),
            None => format!("{:>7}", "-"),
        };
        println!(
            "bench map/{:<14} {:<10} {:>7} tasks   ref {ref_col}   incr {:>10.2?}   \
             {:>7.4} allocs/task   speedup {speedup_col}",
            m.case,
            m.policy,
            m.tasks,
            std::time::Duration::from_secs_f64(m.incremental_s),
            m.allocs_per_task,
        );
        out.push(m);
    }
    out
}

/// `--check` regression gate: medium scale, incremental engine only.
/// Floors are deliberately an order of magnitude below the numbers a
/// developer laptop produces — the gate exists to catch the engine falling
/// off a complexity cliff (or quietly re-growing per-task allocations),
/// not to flake on slow shared CI runners.
fn check_gate(platform: &Platform) -> i32 {
    /// Minimum mapped tasks per second, per policy, on `random_5000`.
    const THROUGHPUT_FLOOR: f64 = 20_000.0;
    /// Ceiling on the **marginal** heap ops per additional task between
    /// the two gate sizes. One-time setup and geometric arena growth cost
    /// a few thousand ops at any DAG size, so the absolute ratio is
    /// meaningless at gate scale — but the steady-state mapping loop must
    /// not allocate per task, so growing the DAG by 3 000 tasks should add
    /// essentially nothing. A per-task allocation anywhere in the loop
    /// pushes this to ≥ 1 immediately.
    const MARGINAL_ALLOCS_CEILING: f64 = 0.2;

    let small = random_case(2_000, 0xF00D);
    let case = random_case(5_000, 0xF00D);
    let small_alloc = allocate(&small.dag, platform, AllocParams::default());
    let alloc = allocate(&case.dag, platform, AllocParams::default());
    let n = case.dag.num_tasks();
    let extra_tasks = (n - small.dag.num_tasks()) as f64;
    let mut failures = 0;
    for strategy in [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_time_cost(0.5, true),
    ] {
        let scheduler = Scheduler::new(platform).strategy(strategy);
        let secs = time_mapping(3, || scheduler.schedule_with_allocation(&case.dag, &alloc));
        let ops_small =
            count_heap_ops(|| scheduler.schedule_with_allocation(&small.dag, &small_alloc));
        let ops_large = count_heap_ops(|| scheduler.schedule_with_allocation(&case.dag, &alloc));
        let tasks_per_s = n as f64 / secs;
        let marginal = (ops_large as f64 - ops_small as f64).max(0.0) / extra_tasks;
        let throughput_ok = tasks_per_s >= THROUGHPUT_FLOOR;
        let allocs_ok = marginal <= MARGINAL_ALLOCS_CEILING;
        println!(
            "check map/{:<14} {:<10} {tasks_per_s:>9.0} tasks/s (floor {THROUGHPUT_FLOOR:.0}) \
             {}   {marginal:.4} marginal allocs/task (ceiling {MARGINAL_ALLOCS_CEILING}) {}",
            case.name,
            strategy.name(),
            if throughput_ok { "ok" } else { "FAIL" },
            if allocs_ok { "ok" } else { "FAIL" },
        );
        failures += i32::from(!throughput_ok) + i32::from(!allocs_ok);
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_scale = args.iter().any(|a| a == "--test");
    // `cargo bench` may pass harness flags like --bench; ignore them.
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    if args.iter().any(|a| a == "--check") {
        let failures = check_gate(&platform);
        if failures > 0 {
            eprintln!("bench --check: {failures} gate(s) failed");
            std::process::exit(1);
        }
        println!("bench --check: all gates passed");
        return;
    }
    let mut results = Vec::new();
    for case in cases(test_scale) {
        let alloc = allocate(&case.dag, &platform, AllocParams::default());
        results.extend(measure(&case, &platform, &alloc, test_scale));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"mapping_engine\",");
    let _ = writeln!(json, "  \"platform\": \"{}\",", platform.name());
    let _ = writeln!(
        json,
        "  \"scale\": \"{}\",",
        if test_scale { "test" } else { "full" }
    );
    let _ = writeln!(json, "  \"cases\": [");
    for (i, m) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "{}{}", m.to_json(), sep);
    }
    json.push_str("  ]\n}\n");

    if test_scale {
        // Smoke runs must not clobber the committed full-scale record.
        println!("--test scale: skipping BENCH_mapping.json write");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mapping.json");
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    if let Some((m, speedup)) = results
        .iter()
        .filter(|m| m.case == "random_5000")
        .filter_map(|m| m.speedup().map(|s| (m, s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
    {
        println!(
            "mapping-step throughput on random_5000: {speedup:.2}x (worst policy: {})",
            m.policy
        );
    }
}
