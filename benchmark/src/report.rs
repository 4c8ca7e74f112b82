//! Result lines, result sets, and the tools that read them back:
//! `compare` (is B worse than A?) and `check` (does a result say what
//! `BENCHMARK.json` says it must?).

use crate::host;
use crate::json::{self, Obj, Value};
use crate::metrics::{name_ok, Def, Metrics, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::oracle::Tally;
use crate::stats::{median, rel_iqr};
use crate::workloads::RunOut;
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// The one line a run prints last: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(t: &Tally, metrics: &str) -> String {
    let mut o = Obj::new();
    o.bool("correct", t.failed == 0 && t.checked > 0)
        .num("attempted", t.attempted.max(1) as f64)
        .num("failed", t.failed as f64)
        .raw("metrics", metrics);
    o.finish()
}

/// [`result_line`] plus what a result set keeps about each run: validity
/// flags (reported, never silently dropped) and load before and after.
pub fn full_line(
    out: &RunOut,
    metrics: &str,
    workload: &str,
    seed: u64,
    load_before: f64,
) -> String {
    let mut o = Obj::new();
    o.str("workload", workload)
        .num("seed", seed as f64)
        .bool("valid", out.flags.is_empty())
        .raw("flags", &json::str_array(&out.flags))
        .bool("correct", out.tally.failed == 0 && out.tally.checked > 0)
        .num("attempted", out.tally.attempted.max(1) as f64)
        .num("failed", out.tally.failed as f64)
        .num("checked", out.tally.checked as f64)
        .num("failed_share", out.tally.failed_share())
        .num("loadavg_before", load_before)
        .num("loadavg_after", host::loadavg1())
        .raw("metrics", metrics);
    o.finish()
}

fn host_json(h: &host::Host) -> String {
    let mut caches = Obj::new();
    for (level, size) in &h.caches {
        caches.str(level, size);
    }
    let mut o = Obj::new();
    o.num("cores", h.cores as f64)
        .str("cpu_model", &h.cpu_model)
        .raw("caches", &caches.finish())
        .str("kernel", &h.kernel)
        .str("rustc", &h.rustc)
        .str("commit", &h.commit)
        .bool("dirty", h.dirty);
    o.finish()
}

/// `run` / `trace`: every workload `--runs` times, each run a process of
/// its own (peak RSS is per process), collected into one result set.
pub fn run_set(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let runs: u64 = args.num("--runs", 1)?;
    let seed: u64 = args.num("--seed", 1)?;
    let smoke = args.has("--smoke");
    let seconds: f64 = args.num("--seconds", if smoke { 4.0 } else { RUN_SECONDS as f64 })?;
    let only = args.get("--workload");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let host = host::capture();
    let mut lines = Vec::new();
    let mut bad = false;
    for r in 0..runs {
        for (workload, _) in WORKLOADS.iter().filter(|(w, _)| only.is_none_or(|o| o == *w)) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--full"])
                .args(["--seed", &(seed + r).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child, so no process outlives this call.
            let out = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or("").to_owned();
            let parsed =
                json::parse(&line).map_err(|e| format!("{workload} printed no result ({e})"))?;
            if !out.status.success() || parsed.get("correct") != Some(&Value::Bool(true)) {
                bad = true;
            }
            eprintln!("{workload} seed {}: {}", seed + r, summary(&parsed));
            lines.push(line);
        }
    }
    let mut doc = Obj::new();
    doc.num("schema", 1.0)
        .str("kind", if trace { "trace" } else { "e2e" })
        .raw("host", &host_json(&host))
        .num("seconds", seconds)
        .bool("smoke", smoke)
        .raw("runs", &format!("[\n{}\n]", lines.join(",\n")));
    let text = doc.finish() + "\n";
    match args.get("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => print!("{text}"),
    }
    Ok(if bad { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn summary(run: &Value) -> String {
    let mut parts: Vec<String> = run
        .get("metrics")
        .map(Value::members)
        .unwrap_or(&[])
        .iter()
        .take(5)
        .map(|(k, v)| {
            format!("{k} {:.4}", v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN))
        })
        .collect();
    if run.get("valid") == Some(&Value::Bool(false)) {
        parts.push("INVALID".to_owned());
    }
    parts.join("  ")
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Every value of `metric` on `workload` across a set's runs.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .map(Value::items)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How one (workload, metric) pairing of two sets compares.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound, every run better than every base run.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Spread wider than the bound and the runs overlap: cannot tell.
    Unresolved,
}

/// Judge `other` against `base` for one metric.
pub fn judge(def: &Def, base: &[f64], other: &[f64]) -> (f64, f64, f64, Verdict) {
    let (b, o) = (median(base), median(other));
    let worse_by = if def.better == "lower" { (o - b) / b } else { (b - o) / b };
    let spread = rel_iqr(base).max(rel_iqr(other));
    let (bmin, bmax) =
        base.iter().fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
    let (omin, omax) =
        other.iter().fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
    let overlap = omin <= bmax && bmin <= omax;
    let verdict = if worse_by.abs() <= def.bound {
        Verdict::Same
    } else if spread > def.bound && overlap {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (b, o, spread, verdict)
}

/// `compare A.json B.json`: per (workload, end-to-end metric) base, other,
/// ratio, bound and a verdict; non-zero exit on any `worse`.
pub fn compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let (base, other) = (load(a)?, load(b)?);
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "other", "ratio", "spread", "bound"
    );
    let mut worse = 0;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (vb, vo) = (values(&base, workload, def.name), values(&other, workload, def.name));
            if vb.is_empty() || vo.is_empty() {
                println!(
                    "{workload:<12} {:<14} missing in {}",
                    def.name,
                    if vb.is_empty() { a } else { b }
                );
                worse += 1;
                continue;
            }
            let (mb, mo, spread, verdict) = judge(def, &vb, &vo);
            worse += (verdict == Verdict::Worse) as usize;
            println!(
                "{workload:<12} {:<14} {mb:>14.4} {mo:>14.4} {:>7.4} {spread:>7.4} {:>6.2}  {}",
                def.name,
                mo / mb,
                def.bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
        // Any rise in failures is a regression, whatever its size.
        let failed = |set: &Value| -> f64 {
            set.get("runs")
                .map(Value::items)
                .unwrap_or(&[])
                .iter()
                .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
                .filter_map(|r| r.get("failed_share")?.as_f64())
                .fold(0.0, f64::max)
        };
        let (fb, fo) = (failed(&base), failed(&other));
        let v = if fo > fb { "worse" } else { "same" };
        worse += (fo > fb) as usize;
        println!(
            "{workload:<12} {:<14} {fb:>14.6} {fo:>14.6} {:>7} {:>7} {:>6}  {v}",
            "failed_share", "-", "-", "0 abs"
        );
    }
    Ok(if worse > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

/// Names listed under `key` of `BENCHMARK.json`.
fn manifest_names(manifest: &Value, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .map(Value::items)
        .unwrap_or(&[])
        .iter()
        .filter_map(|d| d.get("name")?.as_str().map(str::to_owned))
        .collect()
}

/// What is wrong with a result set, judged against `BENCHMARK.json`.
pub fn problems(set: &Value, manifest: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let kind = set.get("kind").and_then(Value::as_str).unwrap_or("");
    let want_metrics =
        manifest_names(manifest, if kind == "trace" { "per_layer" } else { "end_to_end" });
    let want_workloads = manifest_names(manifest, "workloads");
    let runs = set.get("runs").map(Value::items).unwrap_or(&[]);
    let mut seen: Vec<String> =
        runs.iter().filter_map(|r| r.get("workload")?.as_str().map(str::to_owned)).collect();
    seen.dedup();
    let mut sorted_seen = seen.clone();
    sorted_seen.sort();
    sorted_seen.dedup();
    let mut sorted_want = want_workloads.clone();
    sorted_want.sort();
    if sorted_seen != sorted_want {
        out.push(format!("workloads {sorted_seen:?} differ from BENCHMARK.json's {sorted_want:?}"));
    }
    for run in runs {
        let w = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let names: Vec<&str> = run
            .get("metrics")
            .map(Value::members)
            .unwrap_or(&[])
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if names != want_metrics.iter().map(String::as_str).collect::<Vec<_>>() {
            out.push(format!("{w}: metric names differ from BENCHMARK.json's {kind} list"));
        }
        for (name, m) in run.get("metrics").map(Value::members).unwrap_or(&[]) {
            if !name_ok(name) {
                out.push(format!("{w}: name {name:?} is not [A-Za-z0-9_.-]+"));
            }
            match m.get("value").and_then(Value::as_f64) {
                Some(v) if v.is_finite() => {}
                _ => out.push(format!("{w}: {name} is not a finite number")),
            }
            if m.get("unit").and_then(Value::as_str).is_none_or(str::is_empty) {
                out.push(format!("{w}: {name} has no unit"));
            }
        }
        if run.get("failed_share").and_then(Value::as_f64) != Some(0.0) {
            out.push(format!("{w}: failed_share is not 0"));
        }
        if run.get("correct") != Some(&Value::Bool(true)) {
            out.push(format!("{w}: run is not correct"));
        }
    }
    out
}

/// `check RESULT.json BENCHMARK.json`.
pub fn check(result: &str, manifest: &str) -> Result<ExitCode, String> {
    let (set, manifest) = (load(result)?, load(manifest)?);
    let found = problems(&set, &manifest);
    for p in &found {
        eprintln!("check: {p}");
    }
    let invalid = set
        .get("runs")
        .map(Value::items)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("valid") == Some(&Value::Bool(false)))
        .count();
    println!("{result}: {} problems, {invalid} runs flagged invalid", found.len());
    Ok(if found.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// The "where the time goes" table, as the README prints it.
pub fn ladder_table(m: &Metrics) -> String {
    let g = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let rank = g("index.sorted_rank_ns.mid");
    let core = g("core.batch_ns_per_key.mid.s1");
    let rows = [
        ("bare rank (partition_point, 2^22 keys)", rank, rank),
        ("+ core (lookup_batch_into, 1 slave, 256-key batches)", core, core - rank),
        (
            "+ serve (ServerHandle, window 256)",
            g("serve.ns_per_lookup"),
            g("serve.self_ns_per_lookup"),
        ),
        (
            "+ net.chan (RemoteClient over ChanNet)",
            g("net.chan.ns_per_lookup"),
            g("net.chan.self_ns_per_lookup"),
        ),
        (
            "+ net.tcp (RemoteClient over TCP loopback)",
            g("net.tcp.ns_per_lookup"),
            g("net.tcp.self_ns_per_lookup"),
        ),
    ];
    let mut out =
        format!("{:<54} {:>12} {:>12}\n", "rung (one core, ns per lookup)", "cumulative", "self");
    for (name, cum, own) in rows {
        out.push_str(&format!("{name:<54} {cum:>12.1} {own:>12.1}\n"));
    }
    out.push_str(&format!(
        "core.partition_speedup (slaves = cores over one slave, 2^24 keys): {:.3}\n",
        g("core.partition_speedup")
    ));
    let mut all: Vec<(String, f64)> = crate::metrics::PER_LAYER
        .iter()
        .filter_map(|d| m.get(d.name).map(|v| (format!("{} [{}]", d.name, d.unit), v)))
        .collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in all {
        out.push_str(&format!("{name:<44} {v:>16.4}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{manifest, PER_LAYER};

    fn def(name: &str) -> &'static Def {
        END_TO_END.iter().find(|d| d.name == name).expect("a defined metric")
    }

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let d = def("lookups_per_s"); // higher is better
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |f: f64| base.map(|x| x * f);
        assert_eq!(judge(d, &base, &scaled(0.97)).3, Verdict::Same);
        assert_eq!(judge(d, &base, &scaled(0.5)).3, Verdict::Worse);
        assert_eq!(judge(d, &base, &scaled(1.5)).3, Verdict::Better);
        // A wide, overlapping other set whose median is past the bound.
        let noisy = [60.0, 70.0, 75.0, 100.0, 130.0];
        assert_eq!(judge(d, &base, &noisy).3, Verdict::Unresolved);
        // Lower-is-better flips the direction.
        let l = def("lookup_p50_us");
        assert_eq!(judge(l, &base, &scaled(1.5)).3, Verdict::Worse);
        assert_eq!(judge(l, &base, &scaled(0.5)).3, Verdict::Better);
    }

    fn set_with(kind: &str, defs: &[Def], tweak: impl Fn(&str, &mut Obj)) -> Value {
        let mut m = Metrics::default();
        for d in defs {
            m.set(d.name, 1.5);
        }
        let runs: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| {
                let mut o = Obj::new();
                o.str("workload", w)
                    .bool("valid", true)
                    .bool("correct", true)
                    .num("failed_share", 0.0);
                tweak(w, &mut o);
                o.raw("metrics", &m.render(defs));
                o.finish()
            })
            .collect();
        let mut doc = Obj::new();
        doc.str("kind", kind).raw("runs", &json::array(&runs));
        json::parse(&doc.finish()).unwrap()
    }

    #[test]
    fn check_accepts_what_the_manifest_names_and_nothing_else() {
        let manifest = json::parse(&manifest()).unwrap();
        assert_eq!(
            problems(&set_with("e2e", END_TO_END, |_, _| {}), &manifest),
            Vec::<String>::new()
        );
        assert_eq!(
            problems(&set_with("trace", PER_LAYER, |_, _| {}), &manifest),
            Vec::<String>::new()
        );
        // The wrong metric list for the kind.
        assert!(!problems(&set_with("trace", END_TO_END, |_, _| {}), &manifest).is_empty());
        // A missing metric.
        assert!(!problems(&set_with("e2e", &END_TO_END[1..], |_, _| {}), &manifest).is_empty());
    }

    #[test]
    fn check_rejects_a_failed_or_non_finite_run() {
        let manifest = json::parse(&manifest()).unwrap();
        let mut failing = set_with("e2e", END_TO_END, |_, _| {});
        if let Value::Obj(doc) = &mut failing {
            if let Value::Arr(runs) = &mut doc[1].1 {
                if let Value::Obj(run) = &mut runs[0] {
                    for (k, v) in run.iter_mut() {
                        if k == "failed_share" {
                            *v = Value::Num(0.001);
                        }
                        if k == "metrics" {
                            if let Value::Obj(ms) = v {
                                if let Value::Obj(m) = &mut ms[0].1 {
                                    m[0].1 = Value::Null; // what a NaN is written as
                                }
                            }
                        }
                    }
                }
            }
        }
        let found = problems(&failing, &manifest);
        assert!(found.iter().any(|p| p.contains("failed_share")), "{found:?}");
        assert!(found.iter().any(|p| p.contains("finite")), "{found:?}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_fails_on_a_wrong_reply() {
        let mut t = Tally { attempted: 10, ..Tally::default() };
        t.check(5, 5);
        let v = json::parse(&result_line(&t, "{}")).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        t.check(5, 6);
        let v = json::parse(&result_line(&t, "{}")).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
    }
}
