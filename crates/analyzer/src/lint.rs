//! Workspace lint pass for the collective stack (`embrace-lint`).
//!
//! Text-level checks that enforce repo rules the compiler cannot:
//!
//! * **comm-unwrap** — no `.unwrap()` in non-test code of the comm-path
//!   crates (`collectives`, `core`, `trainer`): communication failures
//!   are typed [`CommError`]s and must propagate, not panic. Invariants
//!   may use `.expect("why this cannot fail")`.
//! * **comm-expect** — same scope: no `.expect(..)` directly on the
//!   result of a communication call (a `try_*` collective,
//!   `recv_timeout`, or a ticket `.wait()`), which would replace the
//!   typed error with an opaque panic message; either propagate the
//!   error or panic with it rendered.
//! * **epoch-raw-send** — in the elastic-membership modules, a packet
//!   sent through the raw endpoint must be a `Packet::Reform` handshake
//!   or wrapped in `Packet::Tagged { epoch, .. }`: an untagged payload
//!   could be consumed by a stale-epoch peer as current traffic.
//! * **comm-infallible** — no calls to the legacy infallible
//!   `ep.send(..)` / `ep.recv(..)` endpoint methods outside tests; real
//!   comm paths use `try_send` / `try_recv` / `recv_timeout`.
//! * **packet-match** — every non-test `match` with `Packet::` arms
//!   handles all `Packet` variants or carries a catch-all arm, so adding
//!   a packet kind cannot silently fall through.
//! * **commop-match** — the same for `CommOp`: every scheduler match
//!   covers every submitted operation kind.
//! * **payload-clone** — no `Packet::…(x.clone())` constructor at send
//!   sites outside `transport.rs`: tensor payloads are `Arc`-backed, so
//!   fan-out sends must use the O(1) `share()` (dense/sparse) instead of
//!   deep-copying; deliberate deep copies (e.g. `Vec<u32>` token buffers)
//!   are allowlisted individually.
//! * **row-mut-loop** — in the embedding-plane crates (`tensor`, `core`,
//!   `dlsim`, `ps`, `trainer`), no `.row_mut(..)` in the body of a `for` /
//!   `while` loop: every call runs `DenseTensor`'s copy-on-write check
//!   (an atomic load and a compare-exchange), which costs more than a
//!   narrow embedding row's arithmetic. Take `rows_mut()` or
//!   `as_mut_slice()` once, outside the loop.
//! * **raw-channel-wait** — under `crates/collectives/src`, no blocking
//!   `.recv()` / `.recv_timeout(d)` on a channel receiver outside
//!   `Endpoint::wait` (the one receive path: spin, then park, with the
//!   counters and the deadline accounting), the link-delay worker and the
//!   group watchdog's driver loop. A second place that parks on a link is a
//!   second receive path. (`Endpoint::recv(from)` / `recv_timeout(from, d)`
//!   take a source rank and are not channel calls.)
//! * **forbid-unsafe** — every workspace crate root declares
//!   `#![forbid(unsafe_code)]`.
//! * **unread-pub** — every bare-`pub` `fn` / `struct` / `enum` / `trait`
//!   / `type` / `const` / `static` in non-test code under `crates/*/src`
//!   is named by some other `.rs` file under `crates/`, `src/`, `tests/`,
//!   `examples/` or `benchmark/src` (so the names the frozen benchmark
//!   imports count as read). A crate root's `pub use` is not a reader; a
//!   type named in the signature or a `pub` field of a read item is read.
//!   An item nothing else reads is made private, deleted, or moved under
//!   `#[cfg(test)]`.
//!
//! Findings can be suppressed via an allowlist file (`lint-allow.txt` at
//! the workspace root): each line is `rule path-substring line-substring`
//! (whitespace-separated; `#` starts a comment). The variant inventories
//! for `packet-match` / `commop-match` are extracted from the enum
//! definitions in `transport.rs` / `scheduler.rs` at lint time, so the
//! lint tracks the code rather than a hardcoded list.
//!
//! The pass is deliberately text-based (no `syn` available in this
//! offline workspace); it masks comments and string literals and tracks
//! `#[cfg(test)]` brace regions, which is exact for rustfmt-formatted
//! code like this repo's.
//!
//! [`CommError`]: embrace_collectives::CommError

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is subject to the comm-path rules.
const COMM_PATH_CRATES: &[&str] =
    &["crates/collectives", "crates/core", "crates/trainer", "crates/ps"];

/// Crates whose `src/` holds the embedding plane's row kernels
/// (`row-mut-loop`).
const ROW_KERNEL_CRATES: &[&str] =
    &["crates/tensor", "crates/core", "crates/dlsim", "crates/ps", "crates/trainer"];

/// How far above a `.row_mut(` the loop header may sit for `row-mut-loop`
/// to connect the two.
const ROW_MUT_LOOP_WINDOW: usize = 6;

/// `(file, function)` pairs under `crates/collectives/src` that may block
/// on a raw channel receiver (`raw-channel-wait`).
const RAW_WAIT_SITES: &[(&str, &str)] = &[
    ("transport.rs", "wait"),
    ("transport.rs", "spawn_delay_worker"),
    ("group.rs", "run_group_with_deadline"),
];

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line number.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// One allowlist entry: suppresses findings whose rule matches and whose
/// path / flagged line contain the given substrings.
#[derive(Clone, Debug, PartialEq, Eq)]
struct AllowEntry {
    rule: String,
    path_substr: String,
    line_substr: String,
}

/// Parse `lint-allow.txt` content: `rule path-substring line-substring`
/// per line, `#` comments, blank lines ignored. The line-substring is
/// the remainder of the line so it may contain spaces.
fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, char::is_whitespace);
            let rule = parts.next()?.to_string();
            let path_substr = parts.next()?.to_string();
            let line_substr = parts.next().unwrap_or("").trim().to_string();
            Some(AllowEntry { rule, path_substr, line_substr })
        })
        .collect()
}

fn allowed(entry: &AllowEntry, finding: &Finding, flagged_line: &str) -> bool {
    entry.rule == finding.rule
        && finding.path.contains(&entry.path_substr)
        && (entry.line_substr.is_empty() || flagged_line.contains(&entry.line_substr))
}

/// Result of a full lint pass.
#[derive(Clone, Debug)]
pub struct LintReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub suppressed: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Replace the contents of comments, string literals, and char literals
/// with spaces (newlines preserved) so structural scans see only code.
/// Handles nested block comments and the lifetime-vs-char-literal
/// ambiguity (a `'` not closed within a short escape window is treated
/// as a lifetime).
fn mask_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'\n' {
                        out.push(b'\n');
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
                if i < b.len() {
                    out.push(b'"');
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal iff it closes within the escape window;
                // otherwise it is a lifetime and passes through.
                let lit_end = if i + 2 < b.len() && b[i + 1] == b'\\' {
                    (i + 2..(i + 5).min(b.len())).find(|&j| b[j] == b'\'')
                } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    Some(i + 2)
                } else {
                    None
                };
                if let Some(end) = lit_end {
                    out.push(b'\'');
                    out.extend(std::iter::repeat_n(b' ', end - i - 1));
                    out.push(b'\'');
                    i = end + 1;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("masking only substitutes ASCII spaces")
}

/// Per-line flags: is this line inside a `#[cfg(test)]`-gated item?
/// Tracks the brace region of the item following each `#[cfg(test)]`
/// attribute (works on comment/string-masked source).
fn test_region_lines(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut idx = 0;
    while idx < lines.len() {
        if lines[idx].trim_start().starts_with("#[cfg(test)]") {
            // Mark from the attribute to the close of the item's braces.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = idx;
            while j < lines.len() {
                in_test[j] = true;
                for ch in lines[j].bytes() {
                    match ch {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            idx = j + 1;
        } else {
            idx += 1;
        }
    }
    in_test
}

/// Extract the variant names of `pub enum <name>` from (unmasked)
/// source. Returns `None` if the enum is not found.
fn enum_variants(src: &str, name: &str) -> Option<Vec<String>> {
    let masked = mask_comments_and_strings(src);
    let needle = format!("pub enum {name} ");
    let start = masked.find(&needle).or_else(|| {
        let alt = format!("pub enum {name}{{");
        masked.find(&alt)
    })?;
    let body_start = masked[start..].find('{')? + start + 1;
    let mut depth = 1i64;
    let mut end = body_start;
    for (off, ch) in masked[body_start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = body_start + off;
                    break;
                }
            }
            _ => {}
        }
    }
    // Split the body at top-level commas; each piece's leading identifier
    // is a variant name (payloads in `(..)` / `{..}` stay inside pieces).
    let mut pieces = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for ch in masked[body_start..end].chars() {
        match ch {
            '{' | '(' | '[' => {
                depth += 1;
                cur.push(ch);
            }
            '}' | ')' | ']' => {
                depth -= 1;
                cur.push(ch);
            }
            ',' if depth == 0 => pieces.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    pieces.push(cur);
    let variants = pieces
        .iter()
        .filter_map(|p| {
            let name: String =
                p.trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if name.is_empty() {
                None
            } else {
                Some(name)
            }
        })
        .collect();
    Some(variants)
}

/// Does `haystack` contain `Name::` as a path whose first segment is
/// exactly `Name` (not a suffix of a longer identifier, e.g. `VPacket::`
/// must not count as `Packet::`)?
fn contains_path_of(haystack: &str, name: &str) -> bool {
    find_path_of(haystack, name).is_some()
}

fn find_path_of(haystack: &str, name: &str) -> Option<usize> {
    let pat = format!("{name}::");
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(&pat) {
        let abs = from + pos;
        let preceded_by_ident = abs > 0
            && haystack[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !preceded_by_ident {
            return Some(abs);
        }
        from = abs + pat.len();
    }
    None
}

/// A `match` expression found in masked source: the byte span of its
/// body and the 1-indexed line it starts on.
struct MatchBlock {
    line: usize,
    body: String,
}

/// Find all `match ... { ... }` expressions in masked source.
fn match_blocks(masked: &str) -> Vec<MatchBlock> {
    let b = masked.as_bytes();
    let mut blocks = Vec::new();
    let mut from = 0;
    while let Some(pos) = masked[from..].find("match ") {
        let abs = from + pos;
        let is_word_start = abs == 0
            || !(b[abs - 1].is_ascii_alphanumeric() || b[abs - 1] == b'_' || b[abs - 1] == b'.');
        from = abs + "match ".len();
        if !is_word_start {
            continue;
        }
        // The match body is the first `{` at brace-depth zero relative to
        // the scrutinee (the scrutinee may contain method-call parens).
        let mut i = abs + "match ".len();
        let mut paren = 0i64;
        let mut bracket = 0i64;
        while i < b.len() {
            match b[i] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b'{' if paren == 0 && bracket == 0 => break,
                _ => {}
            }
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        let body_start = i + 1;
        let mut depth = 1i64;
        let mut end = body_start;
        while end < b.len() {
            match b[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let line = masked[..abs].bytes().filter(|&c| c == b'\n').count() + 1;
        blocks.push(MatchBlock { line, body: masked[body_start..end.min(b.len())].to_string() });
        from = body_start;
    }
    blocks
}

fn is_bare_binding(head: &str) -> bool {
    !head.is_empty()
        && head.chars().all(|c| c.is_alphanumeric() || c == '_')
        && head.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
}

/// Does a match body contain a catch-all arm (`_ =>`, `_ if ... =>`, or a
/// bare binding like `other =>`, possibly inside one constructor such as
/// `Ok(p) =>`) at arm level?
fn has_catch_all(body: &str) -> bool {
    for line in body.lines() {
        let t = line.trim_start();
        if let Some((pat, _)) = t.split_once("=>") {
            let pat = pat.trim();
            let mut head = pat.split(" if ").next().unwrap_or(pat).trim();
            // See through one constructor wrapper: in a match on
            // `Result<Packet>` the arm `Ok(p) =>` catches every packet.
            if let Some((ctor, rest)) = head.split_once('(') {
                let plain_ctor = ctor.chars().all(|c| c.is_alphanumeric() || c == '_');
                if plain_ctor {
                    if let Some(inner) = rest.strip_suffix(')') {
                        head = inner.trim();
                    }
                }
            }
            if head == "_" || is_bare_binding(head) {
                return true;
            }
        }
    }
    false
}

/// Inventory of enum variants that exhaustiveness rules check against.
#[derive(Clone, Debug)]
struct VariantInventory {
    packet: Vec<String>,
    comm_op: Vec<String>,
}

impl VariantInventory {
    /// Extract from the workspace sources under `root`.
    fn from_workspace(root: &Path) -> Result<VariantInventory, String> {
        let transport = std::fs::read_to_string(root.join("crates/collectives/src/transport.rs"))
            .map_err(|e| format!("read transport.rs: {e}"))?;
        let scheduler = std::fs::read_to_string(root.join("crates/collectives/src/scheduler.rs"))
            .map_err(|e| format!("read scheduler.rs: {e}"))?;
        let packet =
            enum_variants(&transport, "Packet").ok_or("enum Packet not found in transport.rs")?;
        let comm_op =
            enum_variants(&scheduler, "CommOp").ok_or("enum CommOp not found in scheduler.rs")?;
        if packet.is_empty() || comm_op.is_empty() {
            return Err("extracted an empty variant inventory".into());
        }
        Ok(VariantInventory { packet, comm_op })
    }
}

/// Lint a single file's source. `rel` is the workspace-relative path
/// (used for rule scoping and reporting).
fn lint_source(rel: &str, src: &str, inv: &VariantInventory) -> Vec<Finding> {
    let mut findings = Vec::new();
    let masked = mask_comments_and_strings(src);
    let in_test = test_region_lines(&masked);
    let masked_lines: Vec<&str> = masked.lines().collect();
    let comm_path = COMM_PATH_CRATES.iter().any(|c| rel.starts_with(c))
        && rel.contains("/src/")
        && !rel.contains("/tests/");

    if comm_path {
        // Heuristic for "this line performs a communication call": the
        // fallible-collective prefix or one of the blocking primitives.
        const COMM_CALL_HINTS: &[&str] = &["try_", "recv_timeout(", ".wait()"];
        for (i, line) in masked_lines.iter().enumerate() {
            if in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            if line.contains(".unwrap()") {
                findings.push(Finding {
                    rule: "comm-unwrap",
                    path: rel.to_string(),
                    line: i + 1,
                    message: "`.unwrap()` on a comm path: propagate a typed CommError or use \
                              `.expect(\"invariant\")`"
                        .to_string(),
                });
            }
            if line.contains(".expect(") && COMM_CALL_HINTS.iter().any(|h| line.contains(h)) {
                findings.push(Finding {
                    rule: "comm-expect",
                    path: rel.to_string(),
                    line: i + 1,
                    message: "`.expect(..)` on a communication result swallows the typed \
                              CommError: propagate it, or panic with the error rendered"
                        .to_string(),
                });
            }
            if line.contains("ep.send(") || line.contains("ep.recv(") {
                findings.push(Finding {
                    rule: "comm-infallible",
                    path: rel.to_string(),
                    line: i + 1,
                    message: "infallible endpoint send/recv outside tests: use try_send/try_recv \
                              or recv_timeout"
                        .to_string(),
                });
            }
        }
    }

    // payload-clone: constructing a Packet from a `.clone()` deep-copies
    // the payload once per link; Arc-backed tensors make `share()` free.
    // transport.rs itself (the Packet definition and loopback paths) is
    // exempt — the rule targets send sites.
    if !rel.ends_with("collectives/src/transport.rs") {
        for (i, line) in masked_lines.iter().enumerate() {
            if in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            if contains_path_of(line, "Packet") && line.contains(".clone()") {
                findings.push(Finding {
                    rule: "payload-clone",
                    path: rel.to_string(),
                    line: i + 1,
                    message: "Packet built from `.clone()`: use `share()` for O(1) fan-out \
                              (allowlist deliberate deep copies)"
                        .to_string(),
                });
            }
        }
    }

    // row-mut-loop: a `.row_mut(` that a `for`/`while` body re-executes
    // pays the copy-on-write check once per iteration.
    if ROW_KERNEL_CRATES.iter().any(|c| rel.starts_with(c)) && rel.contains("/src/") {
        for (i, line) in masked_lines.iter().enumerate() {
            if in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(call) = line.find(".row_mut(") else { continue };
            let first = i.saturating_sub(ROW_MUT_LOOP_WINDOW);
            if (first..=i).any(|h| loop_body_reaches(&masked_lines[h..=i], call)) {
                findings.push(Finding {
                    rule: "row-mut-loop",
                    path: rel.to_string(),
                    line: i + 1,
                    message: "`.row_mut(..)` inside a loop runs the copy-on-write check every \
                              iteration: take `rows_mut()`/`as_mut_slice()` once outside the loop"
                        .to_string(),
                });
            }
        }
    }

    // raw-channel-wait: the transport has one function that parks on a
    // link; anything else in the crate that blocks on a receiver is a
    // second receive path growing beside it.
    if let Some(file) = rel.strip_prefix("crates/collectives/src/") {
        let mut func = "";
        for (i, line) in masked_lines.iter().enumerate() {
            func = declared_fn(line).unwrap_or(func);
            if in_test.get(i).copied().unwrap_or(false) || RAW_WAIT_SITES.contains(&(file, func)) {
                continue;
            }
            if line.contains(".recv()") || one_arg_call(line, ".recv_timeout(") {
                findings.push(Finding {
                    rule: "raw-channel-wait",
                    path: rel.to_string(),
                    line: i + 1,
                    message: "blocking receive on a raw channel: go through `Endpoint::try_recv` \
                              / `recv_timeout`, whose one wait function spins, parks and counts"
                        .to_string(),
                });
            }
        }
    }

    // epoch-raw-send: inside the elastic-membership modules, every packet
    // leaving through the *raw* endpoint (not the epoch-tagging group
    // wrapper) must be a `Reform` handshake or an explicitly `Tagged`
    // payload — anything else could be consumed by a stale-epoch peer as
    // current traffic. The variant names come from the inventory so the
    // rule tracks `enum Packet`.
    if rel.contains("elastic") {
        for (i, line) in masked_lines.iter().enumerate() {
            if in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            if !(line.contains("ep.try_send(") || line.contains("ep.send(")) {
                continue;
            }
            let Some(pos) = find_path_of(line, "Packet") else { continue };
            let variant: String = line[pos + "Packet::".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if inv.packet.contains(&variant) && variant != "Tagged" && variant != "Reform" {
                findings.push(Finding {
                    rule: "epoch-raw-send",
                    path: rel.to_string(),
                    line: i + 1,
                    message: format!(
                        "raw endpoint send of untagged `Packet::{variant}` in elastic code: \
                         wrap it in `Packet::Tagged {{ epoch, .. }}` or send via the group"
                    ),
                });
            }
        }
    }

    // Exhaustiveness rules apply to all non-test workspace code.
    for (enum_name, variants, rule) in
        [("Packet", &inv.packet, "packet-match"), ("CommOp", &inv.comm_op, "commop-match")]
    {
        for blk in match_blocks(&masked) {
            if in_test.get(blk.line - 1).copied().unwrap_or(false) {
                continue;
            }
            if !contains_path_of(&blk.body, enum_name) || has_catch_all(&blk.body) {
                continue;
            }
            let missing: Vec<&String> = variants
                .iter()
                .filter(|v| !blk.body.contains(&format!("{enum_name}::{v}")))
                .collect();
            if !missing.is_empty() {
                let names: Vec<&str> = missing.iter().map(|s| s.as_str()).collect();
                findings.push(Finding {
                    rule,
                    path: rel.to_string(),
                    line: blk.line,
                    message: format!(
                        "match on {enum_name} has no catch-all and misses variant(s): {}",
                        names.join(", ")
                    ),
                });
            }
        }
    }

    findings
}

/// The name a line declares with `fn`, if it declares one.
fn declared_fn(line: &str) -> Option<&str> {
    let at = line.find("fn ")?;
    if line[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let name = &line[at + 3..];
    let end = name.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    (end > 0).then_some(&name[..end])
}

/// Does `line` call `method` (given as `.name(`) with a single argument? A
/// top-level comma before the closing parenthesis means more than one; an
/// argument list that runs past the line counts as one.
fn one_arg_call(line: &str, method: &str) -> bool {
    let Some(at) = line.find(method) else { return false };
    let mut depth = 0usize;
    for c in line[at + method.len()..].chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return true,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => return false,
            _ => {}
        }
    }
    true
}

/// True when `lines[0]` opens a `for`/`while` loop whose body is still
/// open at column `col` of the last line. A position the header's own
/// expression holds (`for x in t.row_mut(0)`, evaluated once) is not in
/// the body.
fn loop_body_reaches(lines: &[&str], col: usize) -> bool {
    let head = lines[0].trim_start();
    let head = head.split_once(": ").filter(|(l, _)| l.starts_with('\'')).map_or(head, |(_, h)| h);
    if !(head.starts_with("for ") || head.starts_with("while ")) {
        return false;
    }
    let skip = lines[0].len() - head.len();
    let mut depth = 0usize;
    let mut entered = false;
    for (k, line) in lines.iter().enumerate() {
        let from = if k == 0 { skip } else { 0 };
        let to = if k + 1 == lines.len() { col } else { line.len() };
        for c in line[from..to].chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' if depth <= 1 => return false,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    entered
}

/// Item keywords `unread-pub` checks.
const PUB_ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// The `(kind, name)` a masked line declares with a bare `pub`, if it
/// declares an item `unread-pub` checks (`pub const fn f` is a `fn`).
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let words: Vec<&str> = line.trim_start().strip_prefix("pub ")?.split_whitespace().collect();
    let qualifier = |w: &str| matches!(w, "const" | "async" | "unsafe");
    let mut k = 0;
    while words.get(k).is_some_and(|w| qualifier(w))
        && words.get(k + 1).is_some_and(|w| qualifier(w) || *w == "fn")
    {
        k += 1;
    }
    let kind = *PUB_ITEM_KINDS.iter().find(|&&kind| words.get(k) == Some(&kind))?;
    let next = words.get(k + 1)?;
    let end = next.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(next.len());
    (end > 0).then_some((kind, &next[..end]))
}

/// The part of an item that a reader of the item also reads, from its
/// declaration at `lines[0]`: a fn's signature, a const's or static's
/// type, an alias's target, a struct's `pub` fields, an enum's variants, a
/// trait's body.
fn item_signature(kind: &str, lines: &[&str]) -> String {
    let mut sig = String::new();
    let (mut depth, mut nest) = (0usize, 0usize);
    for line in lines {
        let keep = !(kind == "struct" && depth == 1 && !line.trim_start().starts_with("pub "));
        for c in line.chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest = nest.saturating_sub(1),
                '{' if matches!(kind, "struct" | "enum" | "trait") => depth += 1,
                '}' if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        return sig;
                    }
                }
                '{' if depth == 0 => return sig,
                ';' if depth == 0 && nest == 0 => return sig,
                '=' if depth == 0 && matches!(kind, "const" | "static") => return sig,
                _ => {}
            }
            if keep {
                sig.push(c);
            }
        }
        sig.push('\n');
    }
    sig
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// Blank the `pub use` statements of a masked crate root: a re-export is
/// not a reader.
fn strip_reexports(masked: &str) -> String {
    let mut out = String::with_capacity(masked.len());
    let mut in_use = false;
    for line in masked.lines() {
        in_use |= line.trim_start().starts_with("pub use ");
        if !in_use {
            out.push_str(line);
        }
        out.push('\n');
        in_use &= !line.contains(';');
    }
    out
}

/// `unread-pub`: a bare-`pub` item in non-test code under `crates/*/src`
/// that no other file of `files` names. A name in a crate root's `pub use`
/// does not read an item; a name in the signature of a read item does.
fn unread_pub(files: &[(String, String)]) -> Vec<Finding> {
    struct Item {
        file: usize,
        line: usize,
        name: String,
        signature: String,
    }
    let mut items = Vec::new();
    let mut namers: HashMap<String, Vec<usize>> = HashMap::new();
    for (file, (rel, src)) in files.iter().enumerate() {
        let mut masked = mask_comments_and_strings(src);
        let crate_root = rel == "src/lib.rs"
            || (crate_source(rel)
                && rel.split('/').count() == 4
                && (rel.ends_with("/lib.rs") || rel.ends_with("/main.rs")));
        if crate_root {
            masked = strip_reexports(&masked);
        }
        let mut seen = HashSet::new();
        for word in identifiers(&masked).filter(|w| seen.insert(*w)) {
            namers.entry(word.to_string()).or_default().push(file);
        }
        if !crate_source(rel) {
            continue;
        }
        let in_test = test_region_lines(&masked);
        let lines: Vec<&str> = masked.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some((kind, name)) = pub_item(line) {
                let signature = item_signature(kind, &lines[i..]);
                items.push(Item { file, line: i + 1, name: name.to_string(), signature });
            }
        }
    }
    let mut read: Vec<bool> = items
        .iter()
        .map(|it| namers.get(&it.name).is_some_and(|fs| fs.iter().any(|&f| f != it.file)))
        .collect();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (k, it) in items.iter().enumerate() {
        by_name.entry(it.name.as_str()).or_default().push(k);
    }
    let mut work: Vec<usize> = (0..items.len()).filter(|&k| read[k]).collect();
    while let Some(k) = work.pop() {
        for word in identifiers(&items[k].signature) {
            for &j in by_name.get(word).into_iter().flatten() {
                if !read[j] {
                    read[j] = true;
                    work.push(j);
                }
            }
        }
    }
    items
        .iter()
        .zip(read)
        .filter(|(_, read)| !read)
        .map(|(it, _)| Finding {
            rule: "unread-pub",
            path: files[it.file].0.clone(),
            line: it.line,
            message: format!(
                "`pub` item `{}` is named by no other file: make it private or \
                 `pub(crate)`, delete it, or move it under `#[cfg(test)]`",
                it.name
            ),
        })
        .collect()
}

/// Check that a crate-root file forbids unsafe code.
fn lint_crate_root(rel: &str, src: &str) -> Option<Finding> {
    if src.contains("#![forbid(unsafe_code)]") {
        None
    } else {
        Some(Finding {
            rule: "forbid-unsafe",
            path: rel.to_string(),
            line: 1,
            message: "crate root must declare #![forbid(unsafe_code)]".to_string(),
        })
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// All crate-root files subject to `forbid-unsafe`: the workspace lib,
/// every `crates/*` root, and every vendored shim.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.join("src/lib.rs")];
    for dir in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else { continue };
        let mut members: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for m in members {
            for candidate in ["src/lib.rs", "src/main.rs"] {
                let p = m.join(candidate);
                if p.exists() {
                    roots.push(p);
                }
            }
        }
    }
    roots.retain(|p| p.exists());
    roots
}

/// Directories under the workspace root whose `.rs` files can read a `pub`
/// item (`unread-pub`). `benchmark/src` is here so the names the frozen
/// benchmark imports count as read.
const READER_DIRS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// Is `rel` under `crates/*/src`?
fn crate_source(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src")
}

/// Is `rel` a source file the per-file rules check: `crates/*/src/**` or
/// the workspace lib under `src/`?
fn linted_source(rel: &str) -> bool {
    rel.starts_with("src/") || crate_source(rel)
}

/// Run the full lint pass over the workspace at `root`, applying the
/// allowlist (if `lint-allow.txt` exists at `root`).
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let inv = VariantInventory::from_workspace(root)?;
    let allow = match std::fs::read_to_string(root.join("lint-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };
    if !root.join("crates").is_dir() {
        return Err(format!("no crates/ directory under {}", root.display()));
    }
    let read_all = |paths: Vec<PathBuf>| -> Vec<(String, String)> {
        paths
            .iter()
            .filter_map(|p| {
                let src = std::fs::read_to_string(p).ok()?;
                let rel = p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
                Some((rel, src))
            })
            .collect()
    };
    let mut paths = Vec::new();
    for dir in READER_DIRS {
        collect_rs_files(&root.join(dir), &mut paths);
    }
    Ok(lint_files(&read_all(paths), &read_all(crate_roots(root)), &inv, &allow))
}

/// The lint pass over in-memory `(workspace-relative path, source)` pairs:
/// the per-file rules over [`linted_source`] files, `unread-pub` over all
/// of `files`, `forbid-unsafe` over `roots`, then the allowlist.
fn lint_files(
    files: &[(String, String)],
    roots: &[(String, String)],
    inv: &VariantInventory,
    allow: &[AllowEntry],
) -> LintReport {
    let mut raw = Vec::new();
    let mut scanned = 0usize;
    for (rel, src) in files.iter().filter(|(rel, _)| linted_source(rel)) {
        scanned += 1;
        raw.extend(lint_source(rel, src, inv));
    }
    raw.extend(unread_pub(files));
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        let src = files.iter().find(|(rel, _)| *rel == f.path).map_or("", |(_, s)| s.as_str());
        let flagged = src.lines().nth(f.line - 1).unwrap_or("");
        if allow.iter().any(|e| allowed(e, &f, flagged)) {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    for (rel, src) in roots {
        scanned += 1;
        if let Some(f) = lint_crate_root(rel, src) {
            if allow.iter().any(|e| allowed(e, &f, "")) {
                suppressed += 1;
            } else {
                findings.push(f);
            }
        }
    }
    LintReport { files_scanned: scanned, findings, suppressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv() -> VariantInventory {
        VariantInventory {
            packet: ["Dense", "Sparse", "Tokens", "Empty", "Abort"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            comm_op: ["AllreduceDense", "Flush"].iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn masking_hides_comments_strings_and_char_literals() {
        let src = "let x = \"match { .unwrap() }\"; // .unwrap()\nlet c = '{'; let l: &'a str;";
        let m = mask_comments_and_strings(src);
        assert!(!m.contains(".unwrap()"));
        assert!(!m.contains('{'), "braces in literals must be masked: {m}");
        assert!(m.contains("&'a str"), "lifetimes must survive: {m}");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}";
        let mask = test_region_lines(src);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn unwrap_outside_tests_is_flagged_inside_tests_is_not() {
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}";
        let f = lint_source("crates/collectives/src/x.rs", src, &inv());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "comm-unwrap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_outside_comm_path_crates_is_ignored() {
        let src = "fn a() { x.unwrap(); }";
        let f = lint_source("crates/dlsim/src/x.rs", src, &inv());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn expect_on_comm_results_is_flagged_but_invariant_expects_are_not() {
        let src = "fn a(ep: &mut E) {\n    \
                   try_barrier(ep).expect(\"collective failed\");\n    \
                   let p = ep.recv_timeout(1, d).expect(\"peer\");\n    \
                   let v = ticket.wait().expect(\"done\");\n    \
                   let x = map.get(&k).expect(\"key inserted above\");\n}";
        let f = lint_source("crates/collectives/src/x.rs", src, &inv());
        assert_eq!(f.iter().filter(|f| f.rule == "comm-expect").count(), 3, "{f:?}");
        // Outside comm-path crates the rule does not apply.
        let f = lint_source("crates/dlsim/src/x.rs", src, &inv());
        assert!(f.iter().all(|f| f.rule != "comm-expect"), "{f:?}");
    }

    #[test]
    fn raw_untagged_sends_in_elastic_code_are_flagged() {
        let src = "fn a(&mut self) {\n    \
                   let _ = self.ep.try_send(1, Packet::Tokens(words));\n    \
                   let _ = self.ep.try_send(1, Packet::Reform(report));\n    \
                   let _ = self.ep.try_send(1, Packet::Tagged { epoch, inner });\n    \
                   let _ = group.try_send(1, Packet::Dense(blob));\n}";
        let f = lint_source("crates/collectives/src/elastic.rs", src, &inv());
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "epoch-raw-send").collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].message.contains("Tokens"), "{}", hits[0].message);
        // Outside elastic modules raw sends are the transport's business.
        let f = lint_source("crates/collectives/src/ops.rs", src, &inv());
        assert!(f.iter().all(|f| f.rule != "epoch-raw-send"), "{f:?}");
    }

    #[test]
    fn infallible_send_recv_flagged() {
        let src = "fn a(ep: &mut Endpoint) {\n    ep.send(0, p);\n    let q = ep.recv(1);\n}";
        let f = lint_source("crates/core/src/x.rs", src, &inv());
        assert_eq!(f.iter().filter(|f| f.rule == "comm-infallible").count(), 2, "{f:?}");
    }

    #[test]
    fn non_exhaustive_packet_match_flagged() {
        let src = "fn a(p: Packet) { match p { Packet::Dense(d) => use_it(d), \
                   Packet::Empty => {} } }";
        let f = lint_source("crates/simnet/src/x.rs", src, &inv());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "packet-match");
        assert!(f[0].message.contains("Sparse"), "{}", f[0].message);
        assert!(f[0].message.contains("Abort"), "{}", f[0].message);
    }

    #[test]
    fn catch_all_match_is_exhaustive() {
        let src = "fn a(p: Packet) { match p {\n    Packet::Dense(d) => use_it(d),\n    \
                   other => drop(other),\n} }";
        let f = lint_source("crates/simnet/src/x.rs", src, &inv());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn vpacket_paths_do_not_count_as_packet() {
        let src = "fn a(p: VPacket) { match p { VPacket::Data(d) => use_it(d), _ => {} } }";
        let f = lint_source("crates/simnet/src/x.rs", src, &inv());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn payload_clone_flagged_outside_transport() {
        let src = "fn a(ep: &mut E, t: DenseTensor) {\n    \
                   let _ = ep.try_send(1, Packet::Dense(t.clone()));\n}";
        let f = lint_source("crates/collectives/src/ops.rs", src, &inv());
        assert_eq!(f.iter().filter(|f| f.rule == "payload-clone").count(), 1, "{f:?}");
        // transport.rs itself is exempt.
        let f = lint_source("crates/collectives/src/transport.rs", src, &inv());
        assert!(f.iter().all(|f| f.rule != "payload-clone"), "{f:?}");
    }

    #[test]
    fn payload_share_and_packet_clone_are_clean() {
        // share() fan-out and cloning a whole Packet (O(1) for Arc-backed
        // payloads, no constructor involved) must not be flagged.
        let src = "fn a(ep: &mut E, t: DenseTensor, p: Packet) {\n    \
                   let _ = ep.try_send(1, Packet::Dense(t.share()));\n    \
                   let _ = ep.try_send(2, p.clone());\n}";
        let f = lint_source("crates/simnet/src/x.rs", src, &inv());
        assert!(f.iter().all(|f| f.rule != "payload-clone"), "{f:?}");
    }

    #[test]
    fn row_mut_in_a_loop_body_is_flagged_in_row_kernel_crates_only() {
        let rule = |rel: &str, src: &str| {
            lint_source(rel, src, &inv()).iter().filter(|f| f.rule == "row-mut-loop").count()
        };
        let looped = "fn gather(out: &mut DenseTensor, src: &DenseTensor, ids: &[u32]) {\n    \
                      for (dst, &id) in ids.iter().enumerate() {\n        \
                      out.row_mut(dst).copy_from_slice(src.row(id as usize));\n    }\n}";
        for krate in ["tensor", "core", "dlsim", "ps", "trainer"] {
            assert_eq!(rule(&format!("crates/{krate}/src/x.rs"), looped), 1, "{krate}");
        }
        // Other crates, and these crates' integration tests, are out of scope.
        assert_eq!(rule("crates/collectives/src/ops.rs", looped), 0);
        assert_eq!(rule("crates/tensor/tests/x.rs", looped), 0);
        // A header spread over several lines, a `while`, a label, a nested block.
        let spread = "fn f(t: &mut DenseTensor, a: &[u32], b: &[u32]) {\n    \
                      'rows: for (i, _) in a\n        .iter()\n        .zip(b)\n        .enumerate()\n    \
                      {\n        if i > 0 {\n            t.row_mut(i)[0] = 1.0;\n        }\n    }\n}";
        assert_eq!(rule("crates/ps/src/x.rs", spread), 1);
        let whiled = "fn f(t: &mut DenseTensor) {\n    let mut r = 0;\n    \
                      while r < t.rows() {\n        t.row_mut(r).fill(0.0);\n        r += 1;\n    }\n}";
        assert_eq!(rule("crates/dlsim/src/x.rs", whiled), 1);
        // Clean: a single-row caller, the hoisted accessor, a call after
        // the loop has closed, a call the header evaluates once, a loop
        // header further up than the window, and test code.
        let single =
            "fn header(t: &mut DenseTensor, step: u64) {\n    t.row_mut(0)[0] = step as f32;\n}";
        assert_eq!(rule("crates/trainer/src/x.rs", single), 0);
        let hoisted = "fn f(t: &mut DenseTensor) {\n    for row in t.rows_mut() {\n        \
                       row.fill(0.0);\n    }\n}";
        assert_eq!(rule("crates/tensor/src/x.rs", hoisted), 0);
        let after = "fn f(t: &mut DenseTensor, n: usize) {\n    for _ in 0..n {\n        tick();\n    }\n    \
                     t.row_mut(0).fill(0.0);\n}";
        assert_eq!(rule("crates/core/src/x.rs", after), 0);
        let in_header =
            "fn f(t: &mut DenseTensor) {\n    for v in t.row_mut(0) {\n        *v = 0.0;\n    }\n}";
        assert_eq!(rule("crates/core/src/x.rs", in_header), 0);
        let far = format!(
            "fn f(t: &mut DenseTensor, n: usize) {{\n    for r in 0..n {{\n{}        \
             t.row_mut(r).fill(0.0);\n    }}\n}}",
            "        tick();\n".repeat(ROW_MUT_LOOP_WINDOW)
        );
        assert_eq!(rule("crates/core/src/x.rs", &far), 0);
        let test_only = format!("#[cfg(test)]\nmod tests {{\n{looped}\n}}");
        assert_eq!(rule("crates/tensor/src/x.rs", &test_only), 0);
    }

    #[test]
    fn raw_channel_waits_are_flagged_outside_the_one_wait_function() {
        let rule = |rel: &str, src: &str| {
            lint_source(rel, src, &inv()).iter().filter(|f| f.rule == "raw-channel-wait").count()
        };
        let second_path = "impl Endpoint {\n    pub fn try_recv(&self, from: usize) -> Packet {\n        \
                           self.rx[from].recv()\n    }\n    fn timed(&self, from: usize) {\n        \
                           let _ = self.rx[from].recv_timeout(self.deadline.min(d));\n    }\n}";
        assert_eq!(rule("crates/collectives/src/transport.rs", second_path), 2);
        assert_eq!(rule("crates/collectives/src/ops.rs", second_path), 2);
        // The rule is about this crate's sources, not its tests or other crates.
        assert_eq!(rule("crates/collectives/tests/x.rs", second_path), 0);
        assert_eq!(rule("crates/trainer/src/x.rs", second_path), 0);
        // The wait function, the delay worker and the watchdog loop may block…
        let sites = "fn wait(&self, from: usize) {\n    let _ = self.rx[from].recv();\n}\n\
                     fn spawn_delay_worker(drx: Receiver<Packet>) {\n    \
                     std::thread::spawn(move || {\n        while let Ok(p) = drx.recv() {}\n    });\n}";
        assert_eq!(rule("crates/collectives/src/transport.rs", sites), 0);
        let watchdog = "pub fn run_group_with_deadline<R, F>(d: Duration) {\n    \
                        match done_rx.recv_timeout(remaining) {}\n}";
        assert_eq!(rule("crates/collectives/src/group.rs", watchdog), 0);
        // …but only there: the same names in another file are not exempt,
        // and the exemption ends with the function.
        assert_eq!(rule("crates/collectives/src/scheduler.rs", sites), 2);
        let after =
            format!("{sites}\nfn other(rx: Receiver<Packet>) {{\n    let _ = rx.recv();\n}}");
        assert_eq!(rule("crates/collectives/src/transport.rs", &after), 1);
        // Endpoint calls name a source rank; polling does not block.
        let endpoint = "fn f(&self, ep: &Endpoint) {\n    \
                        let p = self.ep.recv_timeout(p, deadline);\n    \
                        let q = ep.recv(0);\n    let r = self.rx[from].try_recv();\n    \
                        let s = self.recv_timeout(from, slice.max(a, b));\n}";
        assert_eq!(rule("crates/collectives/src/elastic.rs", endpoint), 0);
        let test_only = format!("#[cfg(test)]\nmod tests {{\n{second_path}\n}}");
        assert_eq!(rule("crates/collectives/src/transport.rs", &test_only), 0);
    }

    #[test]
    fn enum_variants_extracts_names_with_payloads() {
        let src = "pub enum Packet {\n    Dense(DenseTensor),\n    Sparse(RowSparse),\n    \
                   Tokens(Vec<u32>),\n    Empty,\n    Abort { origin: usize },\n}";
        assert_eq!(
            enum_variants(src, "Packet").unwrap(),
            vec!["Dense", "Sparse", "Tokens", "Empty", "Abort"]
        );
    }

    #[test]
    fn allowlist_parsing_and_matching() {
        let allow = parse_allowlist(
            "# comment\n\ncomm-unwrap crates/trainer/src/sim.rs bp_done[m]\n\
             forbid-unsafe vendor/rand \n",
        );
        assert_eq!(allow.len(), 2);
        let f = Finding {
            rule: "comm-unwrap",
            path: "crates/trainer/src/sim.rs".into(),
            line: 3,
            message: String::new(),
        };
        assert!(allowed(&allow[0], &f, "let x = bp_done[m].unwrap();"));
        assert!(!allowed(&allow[0], &f, "let x = other.unwrap();"));
        assert!(!allowed(&allow[1], &f, ""));
    }

    #[test]
    fn forbid_unsafe_rule() {
        assert!(lint_crate_root("crates/x/src/lib.rs", "fn a() {}").is_some());
        assert!(
            lint_crate_root("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\nfn a() {}").is_none()
        );
    }

    fn files(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect()
    }

    fn unread(pairs: &[(&str, &str)]) -> Vec<(String, usize)> {
        unread_pub(&files(pairs)).into_iter().map(|f| (f.path, f.line)).collect()
    }

    /// A crate file declaring `lonely` (read only by its own test) and
    /// `used` (read by the crate root's code).
    const DECL: (&str, &str) = (
        "crates/x/src/a.rs",
        "pub struct Used;\n\npub fn lonely() -> u32 {\n    7\n}\n\
         pub(crate) fn narrowed() {}\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::lonely();\n    }\n}\n",
    );
    const ROOT: (&str, &str) =
        ("crates/x/src/lib.rs", "pub mod a;\nfn root() -> a::Used {\n    a::Used\n}\n");

    #[test]
    fn unread_pub_flags_an_unread_fn_at_its_line() {
        assert_eq!(unread(&[DECL, ROOT]), vec![("crates/x/src/a.rs".to_string(), 3)]);
        let f = unread_pub(&files(&[DECL, ROOT]));
        assert_eq!(f[0].rule, "unread-pub");
        assert!(f[0].message.contains("`lonely`"), "{}", f[0].message);
        // Every item kind, `pub const fn` included; `pub(crate)` and
        // fields are out of scope.
        let kinds = "pub const fn f() {}\npub struct S {\n    pub field: u8,\n}\n\
                     pub enum E {}\npub trait T {}\npub type A = u8;\n\
                     pub const C: u8 = 1;\npub static G: u8 = 2;\n";
        let lines: Vec<usize> =
            unread(&[("crates/x/src/k.rs", kinds)]).into_iter().map(|(_, l)| l).collect();
        assert_eq!(lines, vec![1, 2, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn unread_pub_readers_in_benchmark_and_integration_tests_count() {
        for reader in ["benchmark/src/main.rs", "crates/x/tests/it.rs", "examples/demo.rs"] {
            let user = (reader, "fn main() {\n    embrace_x::a::lonely();\n}\n");
            assert_eq!(unread(&[DECL, ROOT, user]), vec![], "{reader}");
        }
        // A mention in a comment or a string is not a reader.
        let masked = ("tests/it.rs", "// lonely\nconst S: &str = \"lonely\";\n");
        assert_eq!(unread(&[DECL, ROOT, masked]).len(), 1);
    }

    #[test]
    fn unread_pub_crate_root_reexports_are_not_readers() {
        let reexport = (
            "crates/x/src/lib.rs",
            "pub mod a;\npub use a::{\n    lonely,\n    Used,\n};\nfn root() -> Used {\n    Used\n}\n",
        );
        assert_eq!(unread(&[DECL, reexport]), vec![("crates/x/src/a.rs".to_string(), 3)]);
        // Only a crate root's re-exports are discounted: a module's reads.
        let module = ("crates/x/src/b.rs", "pub use crate::a::lonely;\n");
        assert_eq!(unread(&[DECL, ROOT, module]), vec![]);
    }

    #[test]
    fn unread_pub_types_in_a_read_signature_are_read() {
        let decl = (
            "crates/x/src/s.rs",
            "pub struct Opts {\n    pub policy: Policy,\n    hidden: Hidden,\n}\n\
             pub enum Policy {\n    Fixed(Knob),\n}\npub struct Knob;\npub struct Hidden;\n\
             pub fn run(\n    o: &Opts,\n    xs: [u8; 4],\n) -> Outcome {\n    todo!()\n}\n\
             pub struct Outcome;\npub fn unused(o: Orphan) {}\npub struct Orphan;\n",
        );
        let user = ("src/lib.rs", "fn go() {\n    embrace_x::s::run();\n}\n");
        let lines: Vec<usize> = unread(&[decl, user]).into_iter().map(|(_, l)| l).collect();
        // `Hidden` sits in a private field and `Orphan` only in an unread
        // fn's signature; everything `run` exposes is read.
        assert_eq!(lines, vec![9, 17, 18]);
    }

    #[test]
    fn unread_pub_ignores_items_under_cfg_test() {
        let src = "#[cfg(test)]\npub fn reference() {}\n\n#[cfg(test)]\nmod tests {\n    \
                   pub struct Fixture;\n}\n";
        assert_eq!(unread(&[("crates/x/src/a.rs", src)]), vec![]);
    }

    #[test]
    fn unread_pub_allowlist_line_suppresses_the_finding() {
        let ws = files(&[DECL, ROOT]);
        let report = lint_files(&ws, &[], &inv(), &[]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let allow = parse_allowlist("unread-pub crates/x/src/a.rs pub fn lonely(\n");
        let report = lint_files(&ws, &[], &inv(), &allow);
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed, 1);
        // A line substring that does not match leaves it standing.
        let allow = parse_allowlist("unread-pub crates/x/src/a.rs pub fn other(\n");
        assert_eq!(lint_files(&ws, &[], &inv(), &allow).findings.len(), 1);
    }

    #[test]
    fn workspace_is_lint_clean() {
        // The analyzer's own repo must pass its own lint. CARGO_MANIFEST_DIR
        // is crates/analyzer; the workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_lint(&root).expect("lint pass runs");
        assert!(report.files_scanned > 20, "scanned {}", report.files_scanned);
        let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
        assert!(report.clean(), "lint findings:\n{}", msgs.join("\n"));
    }
}
