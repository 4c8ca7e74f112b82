//! The serving layer's thread topology, pinned from the outside: an
//! `S`-shard, `R`-replica server owns exactly one thread, its writer —
//! no per-replica thread, no index worker threads; its callers rank for
//! it — and merges neither add nor remove any. Read from `/proc/self/task/*/comm`, so Linux only; one test in
//! its own file (its own process), so no other test's server is alive
//! while the threads are counted.

#![cfg(target_os = "linux")]

use dini::serve::{IndexServer, Op, ServeConfig};

/// Threads of this process whose name starts with `prefix`. `comm` holds
/// at most 15 bytes of the name, so prefixes must be no longer.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn a_server_owns_one_thread_its_writer() {
    let census = || {
        [
            threads_named("dini-serve-shar"),
            threads_named("dini-serve-writ"),
            threads_named("dini-native-"),
        ]
    };
    assert_eq!(census(), [0, 0, 0], "nothing is serving yet");

    let keys: Vec<u32> = (0..30_000).map(|i| i * 8).collect();
    let mut cfg = ServeConfig::new(3);
    cfg.replicas_per_shard = 2;
    cfg.merge_threshold = 8;
    let server = IndexServer::build(&keys, cfg);
    let handle = server.handle();
    assert_eq!(handle.lookup(80).unwrap(), 11);
    // A thread names itself once it runs, and nothing above waited for
    // the writer: the lookup found its replica idle and was ranked right
    // here.
    let named = std::time::Instant::now();
    while census() != [0, 1, 0] && named.elapsed() < std::time::Duration::from_secs(10) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(census(), [0, 1, 0], "3 shards × 2 replicas: one writer, nothing else");

    // Every ninth insert into a shard crosses its merge threshold.
    for i in 0..600u32 {
        server.update(Op::Insert(i * 400 + 1)).unwrap();
    }
    server.quiesce();
    assert!(server.stats().merges >= 50, "only {} merges", server.stats().merges);
    assert_eq!(handle.lookup(u32::MAX).unwrap(), 30_600);
    assert_eq!(census(), [0, 1, 0], "merges must not spawn or retire threads");

    drop(server);
    assert_eq!(census(), [0, 0, 0], "dropping the server joins every thread it owned");
}
