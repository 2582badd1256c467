//! `mpress-lint`: token-level determinism/robustness lints over the
//! workspace sources (no rustc plugin, plain text).
//!
//! Four rules back the workspace's determinism and robustness
//! contracts:
//!
//! * **wall-clock** — `Instant::now`/`SystemTime` in the simulated-time
//!   crates (`core`, `sim`, `pipeline`): wall clocks in those paths
//!   break the jobs=1 ≡ jobs=N byte-identity contract.
//! * **hash-container** — `HashMap`/`HashSet` in the hot-path crates
//!   (`core`, `sim`, `pipeline`, `compaction`): iteration order is
//!   nondeterministic, so uses must be keyed-lookup-only and justified.
//! * **hash-iteration** — *iterating* a `HashMap`/`HashSet` (same-line
//!   `.iter()`/`.keys()`/`.values()`/`.into_iter()`/`.drain(`), or
//!   collecting into one via `collect::<HashMap…>`, in the deterministic
//!   planner/emulator/analysis crates (`core`, `sim`, `analyze`):
//!   iteration order varies run to run, so those paths must use ordered
//!   containers or sort before iterating.
//! * **panic-site** — `unwrap()`/`expect()`/`panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!` in library code outside `#[cfg(test)]`:
//!   robustness hazards to burn down over time.
//!
//! Counts are compared against a checked-in allowlist
//! (`lint_allowlist.txt`) that can only **ratchet down**: more
//! violations than allowed fails, and *fewer* violations than allowed
//! also fails (the file must be regenerated with `--update` so the
//! improvement is locked in).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads in simulated-time crates.
    WallClock,
    /// Nondeterministically-ordered containers in hot-path crates.
    HashContainer,
    /// Hash-ordered *iteration* in deterministic planner/sim/analyze
    /// paths.
    HashIteration,
    /// `unwrap()`/`expect()` and the panicking macros in library code.
    PanicSite,
}

impl Rule {
    /// Stable name used in the allowlist file and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashContainer => "hash-container",
            Rule::HashIteration => "hash-iteration",
            Rule::PanicSite => "panic-site",
        }
    }

    /// Parses the stable name.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "wall-clock" => Some(Rule::WallClock),
            "hash-container" => Some(Rule::HashContainer),
            "hash-iteration" => Some(Rule::HashIteration),
            "panic-site" => Some(Rule::PanicSite),
            _ => None,
        }
    }

    /// Whether the rule applies to the given workspace crate.
    fn applies_to_crate(self, krate: &str) -> bool {
        match self {
            Rule::WallClock => matches!(krate, "core" | "sim" | "pipeline"),
            Rule::HashContainer => matches!(krate, "core" | "sim" | "pipeline" | "compaction"),
            Rule::HashIteration => matches!(krate, "core" | "sim" | "analyze"),
            Rule::PanicSite => true,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// All rules, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::WallClock,
    Rule::HashContainer,
    Rule::HashIteration,
    Rule::PanicSite,
];

/// Violation counts per `(rule, workspace-relative file)`.
pub type Counts = BTreeMap<(Rule, String), usize>;

/// Replaces comments, string/char literals and (optionally nested)
/// `#[cfg(test)]` items with spaces, preserving length and newlines, so
/// token counting never matches documentation, test code or literals.
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let n = bytes.len();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let end = memfind(bytes, i, b'\n').unwrap_or(n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Nested block comments.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j + 1 < n && depth > 0 {
                    if bytes[j] == b'/' && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = if depth == 0 { j } else { n };
                blank(&mut out, i, end);
                i = end;
            }
            b'"' => {
                let end = scan_string(bytes, i);
                blank(&mut out, i + 1, end.saturating_sub(1).max(i + 1));
                i = end;
            }
            b'r' if i + 1 < n && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#') => {
                if let Some(end) = scan_raw_string(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes; a lifetime never has a closing quote.
                if let Some(end) = scan_char_literal(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    let masked = String::from_utf8_lossy(&out).into_owned();
    mask_cfg_test(&masked)
}

/// Finds `needle` in `bytes[from..]`.
fn memfind(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == needle)
        .map(|p| from + p)
}

/// End index (exclusive) of a normal string literal starting at `i`.
fn scan_string(bytes: &[u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i + 1;
    while j < n {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// End index of a raw string literal (`r"…"`, `r#"…"#`, …) starting at
/// the `r`, or `None` if this is not one.
fn scan_raw_string(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    let mut j = i + 1;
    let mut hashes = 0usize;
    while j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != b'"' {
        return None;
    }
    j += 1;
    while j < n {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && seen < hashes && bytes[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(n)
}

/// End index of a char literal starting at `'`, or `None` for a
/// lifetime.
fn scan_char_literal(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    if i + 2 < n && bytes[i + 1] == b'\\' {
        // Escaped char: find the closing quote within a short window
        // (longest escapes are \u{10FFFF}).
        let limit = (i + 12).min(n);
        (i + 3..limit).find(|&j| bytes[j] == b'\'').map(|j| j + 1)
    } else if i + 2 < n && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\'' {
        Some(i + 3)
    } else {
        None
    }
}

/// Blanks every `#[cfg(test)]` attribute *and the item it gates*
/// (through the matching closing brace, or the terminating semicolon
/// for block-less items). Input must already have comments/strings
/// masked so brace matching is reliable.
fn mask_cfg_test(masked: &str) -> String {
    const MARKER: &str = "#[cfg(test)]";
    let bytes = masked.as_bytes();
    let mut out = bytes.to_vec();
    let mut from = 0;
    while let Some(pos) = masked[from..].find(MARKER).map(|p| p + from) {
        let mut j = pos + MARKER.len();
        // Skip whitespace and further attributes to the item itself.
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                // Another attribute: skip its bracket group.
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                j += 1;
            } else {
                break;
            }
        }
        // Blank to the end of the gated item.
        let mut depth = 0usize;
        let mut end = j;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        for b in &mut out[pos..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        from = end.max(pos + MARKER.len());
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Counts one rule's tokens in already-masked source.
pub fn count_rule(masked: &str, rule: Rule) -> usize {
    match rule {
        Rule::WallClock => count_token(masked, "Instant::now") + count_token(masked, "SystemTime"),
        Rule::HashContainer => count_token(masked, "HashMap") + count_token(masked, "HashSet"),
        Rule::HashIteration => {
            // Line-level heuristic: a line that both names a hash
            // container and calls an iteration method is ordering over
            // hash state; so is collecting *into* one (the turbofish is
            // on the same line by construction). A line only counts
            // once per collect, or once for the name+call conjunction —
            // declarations, point lookups and `BTreeMap` never match.
            const CALLS: &[&str] = &[".iter()", ".keys()", ".values()", ".into_iter()", ".drain("];
            let mut hits = 0;
            for line in masked.lines() {
                let collects = line.match_indices("collect::<HashMap").count()
                    + line.match_indices("collect::<HashSet").count();
                if collects > 0 {
                    hits += collects;
                } else if (count_token(line, "HashMap") + count_token(line, "HashSet") > 0)
                    && CALLS.iter().any(|c| line.contains(c))
                {
                    hits += 1;
                }
            }
            hits
        }
        Rule::PanicSite => {
            let mut hits = ["panic!", "unreachable!", "todo!", "unimplemented!"]
                .iter()
                .map(|mac| count_token(masked, mac))
                .sum::<usize>();
            // Method calls: require the exact call shape so
            // `unwrap_or(...)`/`expect_err(...)` don't match.
            hits += masked.match_indices(".unwrap()").count();
            hits += masked.match_indices(".expect(").count();
            hits
        }
    }
}

/// Counts whole-token occurrences (previous/next byte not part of an
/// identifier).
fn count_token(masked: &str, token: &str) -> usize {
    let bytes = masked.as_bytes();
    masked
        .match_indices(token)
        .filter(|&(pos, _)| {
            let before_ok = pos == 0 || {
                let b = bytes[pos - 1];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            let after = pos + token.len();
            let after_ok = after >= bytes.len() || {
                let b = bytes[after];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            before_ok && after_ok
        })
        .count()
}

/// Scans the workspace rooted at `root` and returns violation counts.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources.
pub fn scan_workspace(root: &Path) -> io::Result<Counts> {
    let mut counts = Counts::new();
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            crate_names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    crate_names.sort();
    for krate in &crate_names {
        let src_dir = crates_dir.join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            // Binaries are allowed to panic: the rules target library
            // code (bin/ subtrees and main.rs are process entry points).
            let is_binary = rel.contains("/src/bin/") || rel.ends_with("/main.rs");
            let masked = mask_source(&fs::read_to_string(&file)?);
            for &rule in ALL_RULES {
                if !rule.applies_to_crate(krate) || (is_binary && rule == Rule::PanicSite) {
                    continue;
                }
                let hits = count_rule(&masked, rule);
                if hits > 0 {
                    counts.insert((rule, rel.clone()), hits);
                }
            }
        }
    }
    Ok(counts)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The parsed allowlist: max counts plus any reason strings.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Allowlist {
    /// `(rule, file)` → permitted count.
    pub max: BTreeMap<(Rule, String), usize>,
    /// `(rule, file)` → justification comment, if present.
    pub reasons: BTreeMap<(Rule, String), String>,
}

impl Allowlist {
    /// Parses the allowlist text format: `<rule> <path> <max> [# reason]`
    /// per line, `#`-prefixed lines and blanks ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut list = Allowlist::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (entry, reason) = match line.split_once(" # ") {
                Some((e, r)) => (e.trim(), Some(r.trim().to_string())),
                None => (line, None),
            };
            let mut fields = entry.split_whitespace();
            let (Some(rule), Some(path), Some(max)) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!(
                    "line {}: expected `<rule> <path> <max>`",
                    lineno + 1
                ));
            };
            let Some(rule) = Rule::parse(rule) else {
                return Err(format!("line {}: unknown rule {rule:?}", lineno + 1));
            };
            let Ok(max) = max.parse::<usize>() else {
                return Err(format!("line {}: bad count {max:?}", lineno + 1));
            };
            let key = (rule, path.to_string());
            list.max.insert(key.clone(), max);
            if let Some(r) = reason {
                list.reasons.insert(key, r);
            }
        }
        Ok(list)
    }

    /// Renders the allowlist back to its text format, preserving
    /// reasons for surviving entries.
    pub fn render(counts: &Counts, old: &Allowlist) -> String {
        let mut out = String::from(
            "# mpress-lint allowlist — the determinism/robustness ratchet.\n\
             #\n\
             # Format: <rule> <path> <max> [# reason]\n\
             # Counts may only go DOWN: `mpress-lint` fails when a file has more\n\
             # violations than listed here AND when it has fewer (regenerate with\n\
             # `mpress-lint --update` so improvements are locked in).\n",
        );
        for ((rule, file), &count) in counts {
            let key = (*rule, file.clone());
            match old.reasons.get(&key) {
                Some(reason) => out.push_str(&format!("{rule} {file} {count} # {reason}\n")),
                None => out.push_str(&format!("{rule} {file} {count}\n")),
            }
        }
        out
    }
}

/// Compares scanned counts against the allowlist. Returns the list of
/// problems (empty = gate passes).
pub fn check(counts: &Counts, allow: &Allowlist) -> Vec<String> {
    let mut problems = Vec::new();
    let mut keys: Vec<(Rule, String)> = counts.keys().cloned().collect();
    for key in allow.max.keys() {
        if !counts.contains_key(key) {
            keys.push(key.clone());
        }
    }
    keys.sort();
    keys.dedup();
    for key in keys {
        let actual = counts.get(&key).copied().unwrap_or(0);
        let permitted = allow.max.get(&key).copied().unwrap_or(0);
        let (rule, file) = &key;
        if actual > permitted {
            problems.push(format!(
                "{rule} {file}: {actual} violation(s), allowlist permits {permitted} — \
                 fix them or justify the increase in lint_allowlist.txt"
            ));
        } else if actual < permitted {
            problems.push(format!(
                "{rule} {file}: allowlist permits {permitted} but only {actual} remain — \
                 ratchet down with `mpress-lint --update`"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_removes_comments_strings_and_tests() {
        let src = r#"
// a comment with panic!("x")
/* block .unwrap() */
fn lib() {
    let s = "contains .unwrap() and panic!";
    real().unwrap();
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); y.unwrap(); }
}
"#;
        let masked = mask_source(src);
        assert_eq!(count_rule(&masked, Rule::PanicSite), 1, "{masked}");
    }

    #[test]
    fn expect_err_and_unwrap_or_do_not_count() {
        let masked =
            mask_source("fn f() { a.expect_err(\"x\"); b.unwrap_or(3); c.expect(\"y\"); }");
        assert_eq!(count_rule(&masked, Rule::PanicSite), 1);
    }

    #[test]
    fn panicking_macros_count_as_whole_tokens() {
        let masked = mask_source(
            "fn f() { unreachable!(); todo!(); unimplemented!(\"x\"); my_todo!(); debug_assert!(a); }",
        );
        assert_eq!(count_rule(&masked, Rule::PanicSite), 3, "{masked}");
    }

    #[test]
    fn wall_clock_and_hash_tokens_count_whole_words() {
        let masked = mask_source(
            "use std::time::Instant; fn f() { let t = Instant::now(); let m: HashMap<u32, u32>; }",
        );
        assert_eq!(count_rule(&masked, Rule::WallClock), 1);
        assert_eq!(count_rule(&masked, Rule::HashContainer), 1);
        // Identifier *containing* the token must not match.
        let masked2 = mask_source("struct MyHashMapLike; fn g(x: MyHashMapLike) {}");
        assert_eq!(count_rule(&masked2, Rule::HashContainer), 0);
    }

    #[test]
    fn cfg_test_fn_items_are_masked_through_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        let masked = mask_source(src);
        assert_eq!(count_rule(&masked, Rule::PanicSite), 1, "{masked}");
    }

    #[test]
    fn char_literals_and_lifetimes_survive_masking() {
        let src = "fn f<'a>(x: &'a str) -> char { if x.is_empty() { '{' } else { '}' } }\nfn g() { h.unwrap(); }";
        let masked = mask_source(src);
        assert_eq!(count_rule(&masked, Rule::PanicSite), 1, "{masked}");
    }

    #[test]
    fn raw_strings_are_masked() {
        let src = "fn f() { let p = r#\"panic!(\"never\")\"#; }";
        let masked = mask_source(src);
        assert_eq!(count_rule(&masked, Rule::PanicSite), 0, "{masked}");
    }

    #[test]
    fn allowlist_round_trips_with_reasons() {
        let text = "# header\nwall-clock crates/core/src/x.rs 2 # bench timing\npanic-site crates/hw/src/y.rs 4\n";
        let list = Allowlist::parse(text).expect("parses");
        assert_eq!(
            list.max
                .get(&(Rule::WallClock, "crates/core/src/x.rs".into())),
            Some(&2)
        );
        let mut counts = Counts::new();
        counts.insert((Rule::WallClock, "crates/core/src/x.rs".into()), 2);
        counts.insert((Rule::PanicSite, "crates/hw/src/y.rs".into()), 4);
        let rendered = Allowlist::render(&counts, &list);
        assert!(rendered.contains("# bench timing"), "{rendered}");
        let reparsed = Allowlist::parse(&rendered).expect("round trips");
        assert_eq!(reparsed.max, list.max);
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("wall-clock only-two").is_err());
        assert!(Allowlist::parse("no-such-rule a.rs 3").is_err());
        assert!(Allowlist::parse("panic-site a.rs many").is_err());
    }

    #[test]
    fn check_enforces_the_ratchet_in_both_directions() {
        let mut counts = Counts::new();
        counts.insert((Rule::PanicSite, "a.rs".into()), 3);
        let mut allow = Allowlist::default();

        // Unlisted violations fail.
        assert_eq!(check(&counts, &allow).len(), 1);

        // Exact match passes.
        allow.max.insert((Rule::PanicSite, "a.rs".into()), 3);
        assert!(check(&counts, &allow).is_empty());

        // Improvement without an allowlist update fails (ratchet).
        counts.insert((Rule::PanicSite, "a.rs".into()), 1);
        let problems = check(&counts, &allow);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("ratchet"), "{problems:?}");

        // Stale entries (file now clean) fail too.
        counts.remove(&(Rule::PanicSite, "a.rs".into()));
        assert_eq!(check(&counts, &allow).len(), 1);
    }

    #[test]
    fn rule_scoping_matches_the_contract() {
        assert!(Rule::WallClock.applies_to_crate("sim"));
        assert!(!Rule::WallClock.applies_to_crate("bench"));
        assert!(Rule::HashContainer.applies_to_crate("compaction"));
        assert!(!Rule::HashContainer.applies_to_crate("cli"));
        assert!(Rule::HashIteration.applies_to_crate("core"));
        assert!(Rule::HashIteration.applies_to_crate("analyze"));
        assert!(!Rule::HashIteration.applies_to_crate("compaction"));
        assert!(Rule::PanicSite.applies_to_crate("analyze"));
    }

    #[test]
    fn hash_iteration_flags_iteration_and_collects_but_not_lookups() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\n\
                   fn g(xs: &[(u32, u32)]) { let _ = xs.iter().copied().collect::<HashMap<u32, u32>>(); }\n\
                   fn h(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }\n\
                   fn i(b: &BTreeMap<u32, u32>) -> Vec<u32> { b.keys().copied().collect() }\n";
        let masked = mask_source(src);
        // Line 1: named hash container + `.keys()` on one line. Line 2:
        // collect into a HashMap (the same-line `.iter()` is not double
        // counted). Lines 3-4: point lookup / ordered container — clean.
        assert_eq!(count_rule(&masked, Rule::HashIteration), 2, "{masked}");
    }

    #[test]
    fn hash_iteration_name_parses_and_reports() {
        assert_eq!(Rule::parse("hash-iteration"), Some(Rule::HashIteration));
        assert_eq!(Rule::HashIteration.as_str(), "hash-iteration");
        assert!(ALL_RULES.contains(&Rule::HashIteration));
    }
}
