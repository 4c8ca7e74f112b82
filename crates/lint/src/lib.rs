//! `dini-lint`: the repo's own invariant lints, run in CI.
//!
//! `rustc` and clippy enforce language rules; this tool enforces
//! *repo* rules — conventions the concurrency story depends on but no
//! general-purpose linter knows about:
//!
//! * **R1 `unsafe-safety`** — every `unsafe` block and `unsafe impl`
//!   is preceded by a `// SAFETY:` comment; every `unsafe fn`
//!   declaration documents its contract (a `# Safety` doc section or a
//!   `SAFETY:` comment).
//! * **R2 `contract-relaxed`** — `Ordering::Relaxed` is forbidden on
//!   the named contract atomics (`served`, the reply-slot `word`, the
//!   seqlock `version`) unless the site is annotated
//!   `// ordering: relaxed-ok: <reason>`. These are the atomics whose
//!   orderings the `dini-check` models verify; a silent downgrade to
//!   `Relaxed` must not slip through review.
//! * **R3 `wall-clock`** — `Instant::now` / `SystemTime::now` appear
//!   nowhere outside `clock.rs` / `host.rs` (the time-virtualization
//!   seams) unless annotated `// lint: wall-clock-ok: <reason>`; an
//!   unvirtualized clock read is invisible to `SimClock` and breaks
//!   deterministic simulation.
//! * **R4 `hot-path-lock`** — no `Mutex` / `RwLock` in the hot-path
//!   modules (`admission.rs`, `oneshot.rs`, `snapshot.rs`, `trace.rs`,
//!   `metrics.rs`) unless annotated `// lint: lock-ok: <reason>`; these
//!   modules' doc contracts promise lock-free operation.
//! * **R5 `metric-name-dup`** — every metric name literal passed to
//!   `MetricsRegistry::counter` / `histogram` / `gauge_fn` is
//!   registered at exactly one non-test source site, workspace-wide.
//!   Registering one name from a loop (one site, many labels) is fine;
//!   two *sites* sharing a name silently merge their series in every
//!   snapshot and dashboard. A deliberate second site is annotated
//!   `// lint: metric-name-ok: <reason>`.
//! * **R6 `unbounded-wait`** — in test code (a `tests/`, `benches/` or
//!   `examples/` tree, or a `#[cfg(test)]` module), a `while` or `loop`
//!   whose body calls `yield_now`, `sleep` or `spin_loop` names
//!   `Instant`, `elapsed` or `deadline` — it can give up, and say what
//!   it waited for — or is annotated `// lint: wait-ok: <reason>`. A
//!   wait on a condition that never comes must fail the test, not hang
//!   the CI job.
//!
//! The scanner is a hand-rolled Rust lexer — comment-, string-, and
//! char-literal-aware, with `#[cfg(test)]` module tracking — so the
//! tool stays dependency-free and hermetic. R1 applies everywhere
//! (test `unsafe` needs justification too); R2–R5 exempt test code,
//! where scaffolding legitimately spins clocks, takes locks, and
//! builds throwaway registries; R6 applies to test code only.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the violation is in (as given to the scanner).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier (`unsafe-safety`, `contract-relaxed`,
    /// `wall-clock`, `hot-path-lock`, `metric-name-dup`,
    /// `unbounded-wait`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Atomics whose memory ordering is a documented cross-thread contract
/// (and a `dini-check` model): `Relaxed` on these requires an explicit
/// `// ordering: relaxed-ok:` annotation.
const CONTRACT_ATOMICS: &[&str] = &["served", "word", "version"];

/// Modules whose documentation promises lock-free hot paths.
const HOT_PATH_FILES: &[&str] =
    &["admission.rs", "oneshot.rs", "snapshot.rs", "trace.rs", "metrics.rs"];

/// Files allowed to read the wall clock: the time-virtualization seams.
const CLOCK_FILES: &[&str] = &["clock.rs", "host.rs"];

/// The `MetricsRegistry` registration calls R5 tracks: each takes the
/// metric name as its first argument, and registering a name twice
/// silently merges two series into one.
const METRIC_METHODS: &[&str] = &[".counter(", ".histogram(", ".gauge_fn("];

/// One source line split into its lexical layers.
#[derive(Debug, Default, Clone)]
struct Line {
    /// Code with comments removed and string/char-literal *contents*
    /// blanked (delimiters kept), so substring searches cannot be
    /// fooled by comments or literals.
    code: String,
    /// Concatenated comment text on this line (line and block).
    comment: String,
    /// Whether any non-comment, non-whitespace code exists here.
    has_code: bool,
    /// Inside a `#[cfg(test)]` module (or a `#[test]` fn).
    test: bool,
    /// Contents of the string literals *opened* on this line, in
    /// source order (the code layer blanks them; rules that need the
    /// text — R5's metric names — read it here).
    strs: Vec<String>,
}

/// Lexes `src` into per-line code/comment layers with test-module
/// tracking. This is the whole "parser": rules work on the layered
/// lines, never on raw text.
fn lex(src: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut mode = Mode::Code;
    // Test-region tracking: `#[cfg(test)]` / `#[test]` arms a pending
    // flag; the next `{` opens a region marked as test until its
    // matching `}`.
    let mut depth: i64 = 0;
    let mut test_pending = false;
    let mut test_depth: Option<i64> = None;
    // The string literal currently being read, and the index of the
    // line it opened on (its contents land in that line's `strs`).
    let mut lit = String::new();
    let mut lit_line = 0usize;

    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            if matches!(mode, Mode::Str | Mode::RawStr(_)) {
                lit.push('\n');
            }
            lines.push(Line { test: test_depth.is_some(), ..Line::default() });
            i += 1;
            continue;
        }
        let cur_idx = lines.len() - 1;
        let cur = lines.last_mut().expect("at least one line");
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    i += 2;
                    continue;
                }
                '"' => {
                    cur.code.push('"');
                    cur.has_code = true;
                    lit.clear();
                    lit_line = cur_idx;
                    mode = Mode::Str;
                }
                'r' | 'b' => {
                    // Possible raw/byte string opener: r", br", r#"…
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let prev_ident =
                        i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                    if !prev_ident && chars.get(j) == Some(&'"') {
                        cur.code.push('"');
                        cur.has_code = true;
                        lit.clear();
                        lit_line = cur_idx;
                        // b"…" is an ordinary escaped string; r/br are raw.
                        mode = if c == 'b' && chars.get(i + 1) == Some(&'"') {
                            Mode::Str
                        } else {
                            Mode::RawStr(hashes)
                        };
                        i = j + 1;
                        continue;
                    }
                    cur.code.push(c);
                    cur.has_code = true;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within
                    // a couple of chars ('x', '\n'); a lifetime never
                    // has a quote right after its first identifier char.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    cur.code.push('\'');
                    cur.has_code = true;
                    if is_char {
                        mode = Mode::Char;
                    }
                }
                '{' => {
                    cur.code.push('{');
                    cur.has_code = true;
                    depth += 1;
                    if test_pending {
                        test_pending = false;
                        if test_depth.is_none() {
                            test_depth = Some(depth);
                            cur.test = true;
                        }
                    }
                }
                '}' => {
                    cur.code.push('}');
                    cur.has_code = true;
                    if test_depth == Some(depth) {
                        test_depth = None;
                    }
                    depth -= 1;
                }
                _ => {
                    cur.code.push(c);
                    if !c.is_whitespace() {
                        cur.has_code = true;
                    }
                }
            },
            Mode::LineComment => cur.comment.push(c),
            Mode::BlockComment(n) => {
                if c == '*' && next == Some('/') {
                    mode = if n == 1 { Mode::Code } else { Mode::BlockComment(n - 1) };
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(n + 1);
                    i += 2;
                    continue;
                }
                cur.comment.push(c);
            }
            Mode::Str => match c {
                '\\' => {
                    // Skip the escaped char in the code layer; keep it
                    // raw in the captured literal.
                    if let Some(e) = next {
                        lit.push(e);
                    }
                    i += 2;
                    continue;
                }
                '"' => {
                    cur.code.push('"');
                    mode = Mode::Code;
                    lines[lit_line].strs.push(std::mem::take(&mut lit));
                }
                _ => {
                    cur.code.push(' ');
                    lit.push(c);
                }
            },
            Mode::RawStr(hashes) => {
                let closes = c == '"'
                    && chars[i + 1..].iter().take(hashes).filter(|&&h| h == '#').count() == hashes;
                if closes {
                    cur.code.push('"');
                    mode = Mode::Code;
                    lines[lit_line].strs.push(std::mem::take(&mut lit));
                    i += 1 + hashes;
                    continue;
                }
                cur.code.push(' ');
                lit.push(c);
            }
            Mode::Char => match c {
                '\\' => {
                    i += 2;
                    continue;
                }
                '\'' => {
                    cur.code.push('\'');
                    mode = Mode::Code;
                }
                _ => cur.code.push(' '),
            },
        }
        // Arm the test flag on attribute lines (checked on the blanked
        // code, so `"#[cfg(test)]"` inside a string cannot arm it).
        if mode == Mode::Code {
            let code = &lines.last().expect("line").code;
            if code.contains("#[cfg(test)]") || code.contains("#[test]") {
                test_pending = true;
            }
        }
        i += 1;
    }
    lines
}

/// Position of `needle` in `hay` as a whole word (not an identifier
/// substring), if present.
fn word(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + needle.len();
    }
    None
}

/// Does line `i` (or the contiguous run of pure-comment / attribute
/// lines directly above it) carry a comment containing `marker`?
fn annotated(lines: &[Line], i: usize, marker: &str) -> bool {
    if lines[i].comment.contains(marker) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let attr_line = l.has_code && l.code.trim_start().starts_with("#[");
        if l.has_code && !attr_line {
            return false; // real code terminates the annotation run
        }
        if !l.has_code && l.comment.is_empty() {
            return false; // so does a blank line
        }
        if l.comment.contains(marker) {
            return true;
        }
    }
    false
}

fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

fn in_test_tree(path: &Path) -> bool {
    path.components().any(|c| {
        matches!(c.as_os_str().to_str(), Some("tests") | Some("benches") | Some("examples"))
    })
}

/// Does `hay` start with `kw` as a whole word?
fn starts_with_word(hay: &str, kw: &str) -> bool {
    hay.strip_prefix(kw)
        .is_some_and(|rest| !rest.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_'))
}

/// R1: every `unsafe` block / `unsafe impl` needs `// SAFETY:`; every
/// `unsafe fn` declaration needs a documented contract.
fn rule_unsafe_safety(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        let Some(at) = word(&l.code, "unsafe") else { continue };
        // `unsafe fn` in *type* position (`type F = unsafe fn(usize)`,
        // `Box<unsafe fn()>`) names a type, it declares nothing.
        let type_position = l.code[..at].trim_end().ends_with(['=', '(', ',', '<', ':', '&']);
        if type_position {
            continue;
        }
        let rest = l.code[at + "unsafe".len()..].trim_start();
        let (kind, ok, want) = if starts_with_word(rest, "fn") {
            // A declaration's contract may live in a `# Safety` doc
            // section or a plain `SAFETY:` comment.
            let ok = annotated(lines, i, "Safety") || annotated(lines, i, "SAFETY");
            ("unsafe fn", ok, "a `# Safety` doc section or `SAFETY:` comment")
        } else if starts_with_word(rest, "impl") {
            ("unsafe impl", annotated(lines, i, "SAFETY:"), "a preceding `// SAFETY:` comment")
        } else if starts_with_word(rest, "extern") || starts_with_word(rest, "trait") {
            continue; // ABI / trait declarations carry no proof obligation here
        } else {
            ("unsafe block", annotated(lines, i, "SAFETY:"), "a preceding `// SAFETY:` comment")
        };
        if !ok {
            out.push(Finding {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "unsafe-safety",
                message: format!("{kind} without {want}"),
            });
        }
    }
}

/// R2: `Ordering::Relaxed` on a contract atomic needs
/// `// ordering: relaxed-ok: <reason>`.
fn rule_contract_relaxed(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        if l.test || !l.code.contains("Ordering::Relaxed") {
            continue;
        }
        // The receiver may sit on an earlier line of the same method
        // chain; look at a short window ending here.
        let lo = i.saturating_sub(2);
        let hit = CONTRACT_ATOMICS.iter().find(|name| {
            lines[lo..=i].iter().any(|w| {
                word(&w.code, name).is_some_and(|at| {
                    // Receiver position: followed by `.` — possibly on
                    // the next line of a wrapped method chain.
                    let rest = w.code[at + name.len()..].trim_start();
                    rest.starts_with('.') || rest.is_empty()
                })
            })
        });
        if let Some(name) = hit {
            if !annotated(lines, i, "relaxed-ok:") {
                out.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "contract-relaxed",
                    message: format!(
                        "Ordering::Relaxed on contract atomic `{name}` without an \
                         `// ordering: relaxed-ok: <reason>` annotation"
                    ),
                });
            }
        }
    }
}

/// R3: wall-clock reads only in the time-virtualization seams.
fn rule_wall_clock(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    if CLOCK_FILES.contains(&file_name(path)) || in_test_tree(path) {
        return;
    }
    for (i, l) in lines.iter().enumerate() {
        if l.test {
            continue;
        }
        for source in ["Instant::now", "SystemTime::now"] {
            if l.code.contains(source) && !annotated(lines, i, "wall-clock-ok:") {
                out.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "wall-clock",
                    message: format!(
                        "`{source}` outside clock.rs/host.rs without a \
                         `// lint: wall-clock-ok: <reason>` annotation \
                         (unvirtualized time breaks sim determinism)"
                    ),
                });
            }
        }
    }
}

/// R4: no locks in the modules whose docs promise lock-free hot paths.
fn rule_hot_path_lock(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&file_name(path)) || in_test_tree(path) {
        return;
    }
    for (i, l) in lines.iter().enumerate() {
        if l.test {
            continue;
        }
        // Imports are inert; what matters is a lock actually declared
        // or taken in the module.
        let t = l.code.trim_start();
        if starts_with_word(t, "use") || (starts_with_word(t, "pub") && t.contains("use ")) {
            continue;
        }
        for lock in ["Mutex", "RwLock"] {
            if word(&l.code, lock).is_some() && !annotated(lines, i, "lock-ok:") {
                out.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "hot-path-lock",
                    message: format!(
                        "`{lock}` in a lock-free hot-path module without a \
                         `// lint: lock-ok: <reason>` annotation"
                    ),
                });
                break; // one finding per line is enough
            }
        }
    }
}

/// Calls that wait without a bound of their own (R6).
const WAIT_CALLS: &[&str] = &["yield_now", "sleep", "spin_loop"];

/// Names that show a loop can give up (R6).
const BOUND_NAMES: &[&str] = &["Instant", "elapsed", "deadline"];

/// The code of the loop whose keyword (`while` or `loop`) sits at
/// `at` on line `i`: from the keyword to the brace that closes its
/// body, joined across lines.
fn loop_text(lines: &[Line], i: usize, at: usize) -> String {
    let mut text = String::new();
    let mut depth = 0i64;
    let mut opened = false;
    for (j, l) in lines.iter().enumerate().skip(i) {
        let code = if j == i { &l.code[at..] } else { &l.code[..] };
        for c in code.chars() {
            text.push(c);
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if opened && depth == 0 {
                return text;
            }
        }
        text.push('\n');
    }
    text
}

/// R6: a waiting loop in test code must be able to give up.
fn rule_unbounded_wait(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    let tree = in_test_tree(path);
    for (i, l) in lines.iter().enumerate() {
        if !(tree || l.test) {
            continue;
        }
        let Some(at) = ["while", "loop"].iter().filter_map(|kw| word(&l.code, kw)).min() else {
            continue;
        };
        let body = loop_text(lines, i, at);
        let waits = WAIT_CALLS.iter().any(|call| word(&body, call).is_some());
        let bounded = BOUND_NAMES.iter().any(|name| word(&body, name).is_some());
        if waits && !bounded && !annotated(lines, i, "wait-ok:") {
            out.push(Finding {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "unbounded-wait",
                message: "a test loop waits (`yield_now`/`sleep`/`spin_loop`) with no \
                          `Instant`/`elapsed`/`deadline` bound and no \
                          `// lint: wait-ok: <reason>` annotation"
                    .to_owned(),
            });
        }
    }
}

/// One metric-name registration site: `name` registered at
/// `file:line`. Input to R5, which wants exactly one per name.
struct MetricSite {
    file: PathBuf,
    line: usize,
    name: String,
}

/// Collects every non-test metric-name registration site in one file.
/// Sites annotated `// lint: metric-name-ok: <reason>` are excluded
/// here, so annotating *either* end of a deliberate duplicate
/// suppresses the pair. Dynamic names (`.counter(var)`) are invisible
/// to a lexical tool and skipped.
fn metric_sites(path: &Path, lines: &[Line], out: &mut Vec<MetricSite>) {
    if in_test_tree(path) {
        return;
    }
    for (i, l) in lines.iter().enumerate() {
        if l.test {
            continue;
        }
        for call in METRIC_METHODS {
            let Some(at) = l.code.find(call) else { continue };
            let after = l.code[at + call.len()..].trim_start();
            // The name literal either follows the opener on this line
            // (its index among the line's literals = closed quote
            // pairs before the call) or, rustfmt-wrapped, opens the
            // next line.
            let name = if after.starts_with('"') {
                l.strs.get(l.code[..at].matches('"').count() / 2)
            } else if after.is_empty() {
                lines.get(i + 1).and_then(|n| n.strs.first())
            } else {
                None
            };
            let Some(name) = name else { continue };
            if name.is_empty() || annotated(lines, i, "metric-name-ok:") {
                continue;
            }
            out.push(MetricSite { file: path.to_path_buf(), line: i + 1, name: name.clone() });
        }
    }
}

/// R5: a metric name registered at more than one site. The first site
/// (in scan order) is canonical; every later site with the same name
/// is a finding pointing back at it.
fn rule_metric_name_dup(sites: &[MetricSite], out: &mut Vec<Finding>) {
    let mut first: HashMap<&str, (&Path, usize)> = HashMap::new();
    for s in sites {
        match first.get(s.name.as_str()) {
            None => {
                first.insert(&s.name, (&s.file, s.line));
            }
            Some((file, line)) => out.push(Finding {
                file: s.file.clone(),
                line: s.line,
                rule: "metric-name-dup",
                message: format!(
                    "metric name \"{}\" already registered at {}:{} — two registration \
                     sites silently merge into one series; pick a distinct name or \
                     annotate `// lint: metric-name-ok: <reason>`",
                    s.name,
                    file.display(),
                    line
                ),
            }),
        }
    }
}

/// The per-file rules (R1–R4, R6) on one lexed file.
fn per_file_rules(path: &Path, lines: &[Line], out: &mut Vec<Finding>) {
    rule_unsafe_safety(path, lines, out);
    rule_contract_relaxed(path, lines, out);
    rule_wall_clock(path, lines, out);
    rule_hot_path_lock(path, lines, out);
    rule_unbounded_wait(path, lines, out);
}

/// Lints one file's source text. `path` is used for reporting and for
/// the path-sensitive rules (clock files, hot-path modules, test
/// trees). R5 sees only this file, so it catches intra-file duplicate
/// metric names; [`scan_sources`] / [`scan_workspace`] check the rule
/// across files.
pub fn scan_source(path: &Path, src: &str) -> Vec<Finding> {
    scan_sources(&[(path, src)])
}

/// Lints a set of files together: R1–R4 and R6 per file, plus R5 across the
/// whole set (a metric name registered once per file but in two files
/// is still a duplicate). Findings are ordered by file, then line.
pub fn scan_sources(files: &[(&Path, &str)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut sites = Vec::new();
    for (path, src) in files {
        let lines = lex(src);
        per_file_rules(path, &lines, &mut out);
        metric_sites(path, &lines, &mut sites);
    }
    rule_metric_name_dup(&sites, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = file_name(&path).to_owned();
        if path.is_dir() {
            if name != "target" && name != "vendor" && name != ".git" {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lints every first-party `.rs` file under `root` (skipping `vendor/`
/// and `target/`), returning findings ordered by file and line. The
/// files are scanned as one set, so R5's exactly-once check spans the
/// whole workspace.
pub fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples", "benches"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .filter_map(|file| {
            let src = std::fs::read_to_string(&file).ok()?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            Some((rel, src))
        })
        .collect();
    let refs: Vec<(&Path, &str)> = sources.iter().map(|(p, s)| (p.as_path(), s.as_str())).collect();
    scan_sources(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_separates_comments_strings_and_code() {
        let lines = lex("let s = \"// not a comment\"; // real comment\n/* block */ code();\n");
        assert!(lines[0].code.contains("let s"));
        assert!(!lines[0].code.contains("not a comment"));
        assert_eq!(lines[0].comment.trim(), "real comment");
        assert_eq!(lines[1].comment.trim(), "block");
        assert!(lines[1].code.contains("code()"));
    }

    #[test]
    fn lexer_handles_raw_strings_chars_and_lifetimes() {
        let lines = lex("let r = r#\"// raw\"#; let c = '\"'; fn f<'a>(x: &'a str) {}\n");
        assert!(!lines[0].code.contains("raw"));
        assert!(lines[0].code.contains("fn f<'a>"), "lifetime must not open a char literal");
        assert!(lines[0].comment.is_empty());
    }

    #[test]
    fn lexer_tracks_test_modules() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn cold() {}\n";
        let lines = lex(src);
        assert!(!lines[0].test);
        assert!(lines[3].test, "inside the test module");
        assert!(!lines[5].test, "after the test module closes");
    }

    #[test]
    fn lexer_captures_string_literal_contents() {
        let lines = lex("reg.counter(\"dini_x\", \"desc \\\"q\\\"\");\nlet r = r#\"raw body\"#;\n");
        assert_eq!(lines[0].strs, vec!["dini_x", "desc \"q\""]);
        assert_eq!(lines[1].strs, vec!["raw body"]);
        let multi = lex("let s = \"spans\nlines\";\n");
        assert_eq!(multi[0].strs, vec!["spans\nlines"], "content lands on the opening line");
        assert!(multi[1].strs.is_empty());
    }

    #[test]
    fn word_matching_respects_identifier_boundaries() {
        assert!(word("slot.version.load(x)", "version").is_some());
        assert!(word("self.conversion.load(x)", "version").is_none());
        assert!(word("versions.load(x)", "version").is_none());
    }
}
