//! Per-rule fixtures: each rule must fire on its seeded violation and
//! stay silent once the site carries the documented annotation.

use dini_lint::{scan_source, scan_sources};
use std::path::Path;

fn rules(name: &str, src: &str) -> Vec<&'static str> {
    scan_source(Path::new(name), src).into_iter().map(|f| f.rule).collect()
}

#[test]
fn r1_unannotated_unsafe_block_is_flagged() {
    let bad = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["unsafe-safety"]);

    let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert!(rules("crates/x/src/a.rs", good).is_empty());

    let trailing = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller guarantees p is valid.\n}\n";
    assert!(rules("crates/x/src/a.rs", trailing).is_empty());
}

#[test]
fn r1_unsafe_impl_and_fn_need_contracts() {
    let bad_impl = "struct T;\nunsafe impl Send for T {}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad_impl), vec!["unsafe-safety"]);
    let good_impl =
        "struct T;\n// SAFETY: T owns no thread-affine state.\nunsafe impl Send for T {}\n";
    assert!(rules("crates/x/src/a.rs", good_impl).is_empty());

    let bad_fn = "pub unsafe fn from_raw(p: *const u8) {}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad_fn), vec!["unsafe-safety"]);
    let good_fn = "/// # Safety\n/// `p` must come from `into_raw`.\npub unsafe fn from_raw(p: *const u8) {}\n";
    assert!(rules("crates/x/src/a.rs", good_fn).is_empty());
}

#[test]
fn r1_applies_even_in_test_code() {
    let bad = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["unsafe-safety"]);
}

#[test]
fn r1_ignores_unsafe_in_comments_and_strings() {
    let src = "// this mentions unsafe { } in prose\nlet s = \"unsafe { }\";\n";
    assert!(rules("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn r2_relaxed_on_contract_atomic_is_flagged() {
    let bad = "fn f(s: &S) -> u64 {\n    s.version.load(Ordering::Relaxed)\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["contract-relaxed"]);

    let good = "fn f(s: &S) -> u64 {\n    // ordering: relaxed-ok: single-writer, reader re-validates.\n    s.version.load(Ordering::Relaxed)\n}\n";
    assert!(rules("crates/x/src/a.rs", good).is_empty());

    // Non-contract receivers are free to use Relaxed.
    let other = "fn f(s: &S) -> u64 {\n    s.scratch.load(Ordering::Relaxed)\n}\n";
    assert!(rules("crates/x/src/a.rs", other).is_empty());
}

#[test]
fn r2_sees_receivers_on_earlier_chain_lines() {
    let bad = "fn f(s: &S) {\n    s.word\n        .store(0, Ordering::Relaxed);\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["contract-relaxed"]);
}

#[test]
fn r3_wall_clock_outside_clock_files_is_flagged() {
    let bad = "fn f() {\n    let t = Instant::now();\n}\n";
    assert_eq!(rules("crates/x/src/transport.rs", bad), vec!["wall-clock"]);
    let bad2 = "fn f() {\n    let t = std::time::SystemTime::now();\n}\n";
    assert_eq!(rules("crates/x/src/transport.rs", bad2), vec!["wall-clock"]);

    let good = "fn f() {\n    // lint: wall-clock-ok: real-socket deadline, sim never runs this.\n    let t = Instant::now();\n}\n";
    assert!(rules("crates/x/src/transport.rs", good).is_empty());

    // The virtualization seams themselves are exempt.
    assert!(rules("crates/x/src/clock.rs", bad).is_empty());
    assert!(rules("crates/x/src/host.rs", bad).is_empty());
    // So are test trees and #[cfg(test)] modules.
    assert!(rules("crates/x/tests/t.rs", bad).is_empty());
    let in_test_mod = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
    assert!(rules("crates/x/src/transport.rs", in_test_mod).is_empty());
}

#[test]
fn r4_locks_in_hot_path_modules_are_flagged() {
    let bad = "struct P {\n    free: Mutex<Vec<u8>>,\n}\n";
    assert_eq!(rules("crates/x/src/oneshot.rs", bad), vec!["hot-path-lock"]);
    let bad_rw = "struct P {\n    map: RwLock<u8>,\n}\n";
    assert_eq!(rules("crates/x/src/trace.rs", bad_rw), vec!["hot-path-lock"]);

    let good = "struct P {\n    // lint: lock-ok: parking lot, only touched when a waiter blocks.\n    free: Mutex<Vec<u8>>,\n}\n";
    assert!(rules("crates/x/src/oneshot.rs", good).is_empty());

    // The same code in a non-hot-path module is fine.
    assert!(rules("crates/x/src/server.rs", bad).is_empty());
    // Imports are inert — only declared/taken locks count.
    assert!(rules("crates/x/src/oneshot.rs", "use crate::sync::{Mutex, RwLock};\n").is_empty());
}

#[test]
fn r5_duplicate_metric_name_is_flagged() {
    let bad = "fn a(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n}\nfn b(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", bad), vec!["metric-name-dup"]);

    // Distinct names, and a histogram sharing nothing: silent.
    let good = "fn a(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n    let h = m.histogram(\"dini_x_latency_ns\");\n}\n";
    assert!(rules("crates/x/src/a.rs", good).is_empty());

    // One *site* registering many names from a loop is one site.
    let looped = "fn a(m: &MetricsRegistry) {\n    for s in 0..n {\n        heat.push(m.counter(\"dini_x_heat\"));\n    }\n}\n";
    assert!(rules("crates/x/src/a.rs", looped).is_empty());

    // A deliberate second site carries the annotation (either end).
    let annotated = "fn a(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n}\nfn b(m: &MetricsRegistry) {\n    // lint: metric-name-ok: re-registration after failover reuses the series.\n    let c = m.counter(\"dini_x_served\");\n}\n";
    assert!(rules("crates/x/src/a.rs", annotated).is_empty());
}

#[test]
fn r5_exempts_test_code_and_skips_dynamic_names() {
    // Test modules and test trees build throwaway registries freely.
    let in_test_mod = "fn a(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n}\n#[cfg(test)]\nmod tests {\n    fn t(m: &MetricsRegistry) {\n        let c = m.counter(\"dini_x_served\");\n    }\n}\n";
    assert!(rules("crates/x/src/a.rs", in_test_mod).is_empty());
    let in_test_tree = "fn t(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n    let d = m.counter(\"dini_x_served\");\n}\n";
    assert!(rules("crates/x/tests/t.rs", in_test_tree).is_empty());

    // A dynamic name is invisible to a lexical tool: no false pairing.
    let dynamic = "fn a(m: &MetricsRegistry, name: &str) {\n    let c = m.counter(name);\n    let d = m.counter(name);\n}\n";
    assert!(rules("crates/x/src/a.rs", dynamic).is_empty());
}

#[test]
fn r5_spans_files_and_wrapped_calls() {
    // The same name in two different files is still a duplicate — the
    // registry is process-global, not per-module.
    let a = "fn a(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n}\n";
    let b = "fn b(m: &MetricsRegistry) {\n    let c = m.counter(\"dini_x_served\");\n}\n";
    let findings =
        scan_sources(&[(Path::new("crates/x/src/a.rs"), a), (Path::new("crates/x/src/b.rs"), b)]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "metric-name-dup");
    assert_eq!(findings[0].file, Path::new("crates/x/src/b.rs"));
    assert!(findings[0].message.contains("a.rs:2"), "{}", findings[0].message);

    // rustfmt may wrap the name literal onto the next line.
    let wrapped = "fn a(m: &MetricsRegistry) {\n    let c = m.counter(\n        \"dini_x_served\",\n    );\n    let d = m.counter(\"dini_x_served\");\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", wrapped), vec!["metric-name-dup"]);
}

#[test]
fn r6_unbounded_test_waits_are_flagged() {
    let spin = "fn t() {\n    while !done() {\n        std::thread::yield_now();\n    }\n}\n";
    assert_eq!(rules("tests/a.rs", spin), vec!["unbounded-wait"]);
    let napping = "fn t() {\n    let x = loop {\n        if let Some(x) = poll() {\n            break x;\n        }\n        sleep(MS);\n    };\n}\n";
    assert_eq!(rules("crates/x/tests/b.rs", napping), vec!["unbounded-wait"]);
    // A wrapped condition, in a `#[cfg(test)]` module of a source file.
    let wrapped = "#[cfg(test)]\nmod tests {\n    fn t() {\n        while a()\n            && b()\n        {\n            std::hint::spin_loop();\n        }\n    }\n}\n";
    assert_eq!(rules("crates/x/src/a.rs", wrapped), vec!["unbounded-wait"]);

    // Bounded: a deadline, an elapsed check, or an Instant in the loop.
    let deadline = "fn t() {\n    while !done() {\n        assert!(Instant::now() < deadline, \"done\");\n        std::thread::yield_now();\n    }\n}\n";
    assert!(rules("tests/a.rs", deadline).is_empty());
    let elapsed =
        "fn t() {\n    while !done() && start.elapsed() < MAX {\n        sleep(MS);\n    }\n}\n";
    assert!(rules("tests/a.rs", elapsed).is_empty());
    // Annotated, or not waiting, or not test code.
    let annotated = "fn t() {\n    // lint: wait-ok: virtual time; the scheduler's detector fails a stuck run.\n    while !done() {\n        clock.sleep(MS);\n    }\n}\n";
    assert!(rules("tests/a.rs", annotated).is_empty());
    let busy = "fn t() {\n    while let Some(x) = it.next() {\n        use_it(x);\n    }\n}\n";
    assert!(rules("tests/a.rs", busy).is_empty());
    assert!(rules("crates/x/src/a.rs", spin).is_empty(), "library code is not a test tree");
}

#[test]
fn findings_render_with_location_and_rule() {
    let f = &scan_source(Path::new("crates/x/src/a.rs"), "fn f() { unsafe { } }\n")[0];
    let line = f.to_string();
    assert!(line.contains("crates/x/src/a.rs:1"), "{line}");
    assert!(line.contains("[unsafe-safety]"), "{line}");
}
