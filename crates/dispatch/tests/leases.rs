//! Lease-file edge cases: stale-heartbeat reclamation, the double-claim
//! rename race, and resume after a worker dies between the shard-manifest
//! write and its first record.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rats_dispatch::dispatcher::campaign_root;
use rats_dispatch::worker::SHARDS_DIR;
use rats_dispatch::WorkQueue;
use rats_experiments::grid::ShardSpec;
use rats_experiments::shard::{
    merge_shards, read_shard_file, run_shard, shard_file_name, ShardManifest, ShardOptions,
};
use rats_experiments::spec::{ExperimentSpec, SuiteSpec};

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rats-leases-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn mini_spec(name: &str, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::naive(name, "grillon", SuiteSpec::Mini, seed);
    spec.threads = Some(2);
    spec
}

/// A lease that keeps beating is never reclaim-eligible by the content-
/// observation rule; one that stops beating is. This drives the exact
/// staleness logic the dispatcher uses: remember the last content and when
/// it changed, reclaim when it stops changing.
#[test]
fn stale_heartbeats_are_reclaimed_live_ones_are_not() {
    let out = temp_out("stale");
    let spec = mini_spec("leases-stale", 1).normalized();
    let root = campaign_root(&out, &spec);
    fs::create_dir_all(&root).unwrap();
    let queue = WorkQueue::init(&root, &spec, 2).unwrap();

    // Job 0: a live worker beating every 30 ms. Job 1: claimed, then
    // silence (the worker "died").
    let live = queue.claim("live").unwrap().unwrap();
    let dead = queue.claim("dead").unwrap().unwrap();
    assert_eq!((live.job, dead.job), (0, 1));

    let stop = AtomicBool::new(false);
    let reclaimed: Vec<usize> = std::thread::scope(|scope| {
        let stop = &stop;
        let queue_ref = &queue;
        let mut beater = live.clone();
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(30));
                if !beater.beat().unwrap() {
                    break;
                }
            }
        });
        // The dispatcher's observation loop, condensed: content + instant.
        let stale_after = Duration::from_millis(400);
        let mut watch: Vec<(String, Instant)> = vec![
            (String::new(), Instant::now()),
            (String::new(), Instant::now()),
        ];
        let mut reclaimed = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reclaimed.is_empty() && Instant::now() < deadline {
            for (job, worker) in [(0usize, "live"), (1usize, "dead")] {
                let Some(content) = queue_ref.read_claim(job, worker).unwrap() else {
                    continue;
                };
                let slot = &mut watch[job];
                if slot.0 != content {
                    *slot = (content, Instant::now());
                } else if slot.1.elapsed() > stale_after && queue_ref.reclaim(job, worker).unwrap()
                {
                    reclaimed.push(job);
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        reclaimed
    });

    assert_eq!(reclaimed, vec![1], "only the silent lease is reclaimed");
    // The reclaimed job is claimable again; the live lease is intact.
    let files = queue.scan().unwrap();
    assert!(files[&1].todo);
    assert_eq!(files[&0].claims, vec!["live".to_string()]);
    let second = queue.claim("heir").unwrap().unwrap();
    assert_eq!(second.job, 1);
    fs::remove_dir_all(&out).unwrap();
}

/// Many workers racing rename(2) for the same todo files: every job is
/// claimed exactly once, and losers observe `None`, not corruption.
#[test]
fn double_claim_rename_race_has_one_winner() {
    let out = temp_out("race");
    let spec = mini_spec("leases-race", 2).normalized();
    let root = campaign_root(&out, &spec);
    fs::create_dir_all(&root).unwrap();
    // One single job so every round is a direct head-to-head collision.
    for round in 0..20 {
        let queue = WorkQueue::init(&root, &spec, 1).unwrap();
        let barrier = Barrier::new(2);
        let winners: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = ["a", "b"]
                .into_iter()
                .map(|w| {
                    let queue = queue.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        queue.claim(&format!("{w}{round}")).unwrap().is_some()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            winners.iter().filter(|&&won| won).count(),
            1,
            "round {round}: exactly one claimant must win, got {winners:?}"
        );
        // Reset for the next round.
        fs::remove_dir_all(root.join("queue")).unwrap();
    }
    fs::remove_dir_all(&out).unwrap();
}

/// A worker dies after the shard manifest hit the disk but before any
/// record: the successor adopts a record-less file, resumes with zero
/// skips, and the merge still reproduces the in-process outcome.
#[test]
fn resume_after_death_between_manifest_and_first_record() {
    let out = temp_out("manifest");
    let spec = mini_spec("leases-manifest", 3);
    let reference = spec.run().unwrap();
    let normalized = spec.normalized();
    let root = campaign_root(&out, &normalized);
    let shard0 = {
        let mut s = spec.clone();
        s.shard = Some(ShardSpec::new(0, 2));
        s
    };

    // The dead worker's directory: exactly the manifest line, no records —
    // the on-disk state of a death between the manifest write and the
    // first record append.
    let dead_dir = root.join(SHARDS_DIR).join("dead");
    fs::create_dir_all(&dead_dir).unwrap();
    let manifest = ShardManifest {
        spec: normalized.clone(),
        spec_hash: normalized.spec_hash(),
        seed: normalized.seed,
        shard: ShardSpec::new(0, 2),
        threads: 2,
    };
    let manifest_line = serde_json::to_string(&manifest).unwrap();
    let file = shard_file_name(&shard0);
    fs::write(dead_dir.join(&file), format!("{manifest_line}\n")).unwrap();
    let loaded = read_shard_file(&dead_dir.join(&file)).unwrap();
    assert!(loaded.records.is_empty());
    assert!(!loaded.truncated_tail);

    // The heir resumes shard 0 in its own directory (run_shard's resume
    // path accepts the manifest-only file it adopted) and runs shard 1
    // fresh.
    let heir_dir = root.join(SHARDS_DIR).join("heir");
    fs::create_dir_all(&heir_dir).unwrap();
    fs::copy(dead_dir.join(&file), heir_dir.join(&file)).unwrap();
    let resumed = run_shard(&shard0, &heir_dir, ShardOptions::default()).unwrap();
    assert_eq!(resumed.skipped, 0, "no records had been committed");
    assert_eq!(resumed.executed, resumed.total);
    let shard1 = {
        let mut s = spec.clone();
        s.shard = Some(ShardSpec::new(1, 2));
        s
    };
    run_shard(&shard1, &heir_dir, ShardOptions::default()).unwrap();

    let merged = merge_shards(&[
        dead_dir.join(&file),
        heir_dir.join(&file),
        heir_dir.join(shard_file_name(&shard1)),
    ]);
    // The dead worker's manifest-only file merges harmlessly (no records),
    // and the result matches the in-process run bit for bit.
    let merged = merged.unwrap();
    assert_eq!(merged.render(), reference.render());
    fs::remove_dir_all(&out).unwrap();
}

/// The dispatcher-side counterpart: reclaiming a lease whose worker died
/// pre-manifest leaves no shard file at all; the heir starts from scratch
/// and nothing wedges on the empty directory.
#[test]
fn reclaim_with_no_shard_file_restarts_cleanly() {
    let out = temp_out("noshard");
    let spec = mini_spec("leases-noshard", 4).normalized();
    let root = campaign_root(&out, &spec);
    fs::create_dir_all(root.join(SHARDS_DIR).join("ghost")).unwrap();
    let queue = WorkQueue::init(&root, &spec, 1).unwrap();
    let _ghost = queue.claim("ghost").unwrap().unwrap();
    // Death: no beats, no shard file. Reclaim and let the heir run it.
    assert!(queue.reclaim(0, "ghost").unwrap());
    let heir = queue.claim("heir").unwrap().unwrap();
    let mut shard_spec = spec.clone();
    shard_spec.shard = Some(heir.shard());
    let heir_dir = root.join(SHARDS_DIR).join("heir");
    let run = run_shard(
        &shard_spec,
        &heir_dir,
        ShardOptions {
            threads: Some(2),
            ..ShardOptions::default()
        },
    )
    .unwrap();
    assert_eq!(run.skipped, 0);
    assert!(queue.mark_done(&heir).unwrap());
    assert!(queue.status().unwrap().all_done());
    fs::remove_dir_all(&out).unwrap();
}

/// Claim files of foreign shard granularities are invisible: a queue sees
/// only its own `job-*-of-<its count>` files (defends the meta identity
/// check against directory reuse).
#[test]
fn foreign_granularity_files_are_ignored() {
    let out = temp_out("foreign");
    let spec = mini_spec("leases-foreign", 5).normalized();
    let root = campaign_root(&out, &spec);
    fs::create_dir_all(&root).unwrap();
    let queue = WorkQueue::init(&root, &spec, 2).unwrap();
    // Drop a stray file with a different shard count into the queue dir.
    fs::write(queue.dir().join("job-0-of-9.todo"), "{}\n").unwrap();
    let st = queue.status().unwrap();
    assert_eq!((st.total, st.todo), (2, 2));
    let a = queue.claim("w").unwrap().unwrap();
    let b = queue.claim("w").unwrap().unwrap();
    assert_eq!((a.job, b.job), (0, 1));
    assert!(queue.claim("w").unwrap().is_none());
    fs::remove_dir_all(&out).unwrap();
}
