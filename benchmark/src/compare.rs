//! `compare <dir A> <dir B>`: two sets of result files, one verdict per
//! (workload, end-to-end metric).
//!
//! A result file is the captured standard output of one run: its last
//! line is the result object, the line before it the detail object that
//! names the workload. `A` is the parent (or the first set of an A/A
//! comparison), `B` the change. Files pair up in name order within a
//! workload, so interleaved runs saved as `01.json`, `02.json`, … pair
//! as they ran.
//!
//! Verdicts follow choosing-metrics §6.5 and §8, with the bound and
//! direction `BENCHMARK.json` declares for the metric:
//! * `improved` — B wins at least nine tenths of the pairs (ties count
//!   for neither) and the medians differ by more than A's interquartile
//!   range;
//! * `REGRESSED` — B's median is worse than A's by more than the bound,
//!   and by more than A's interquartile range;
//! * `unresolved (spread wider than bound)` — neither, and either set's
//!   interquartile range exceeds the bound;
//! * `unchanged` — otherwise.
//!
//! Per-layer metrics have no bound; they are listed with their change
//! and no verdict.

use crate::stats::{self, Summary};
use embrace_obs::json::{self, Value};
use std::collections::BTreeMap;

/// The declaration this binary was built against.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, PartialEq, Debug)]
enum Better {
    Higher,
    Lower,
}

/// `name → (direction, bound)`; the bound is `None` for per-layer metrics.
fn declared() -> Result<BTreeMap<String, (Better, Option<f64>)>, String> {
    let v = json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in v.get(key).and_then(Value::as_arr).ok_or_else(|| format!("no {key} array"))? {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            out.insert(name.to_string(), (better, m.get("bound").and_then(Value::as_f64)));
        }
    }
    Ok(out)
}

/// `(workload, metric) → values`, in file-name order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// The steps per round every run of a workload must share: a run with
/// shorter rounds (an unoptimised build's) measured something else.
const STEPS_KEY: &str = "steps_per_round";

/// Read one run's output: the workload and its steps per round from the
/// detail line, the values from the result line. A run that is not
/// `correct` is an error: its numbers must not be compared as if it had
/// worked.
fn read_run(text: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let result = json::parse(lines.next().ok_or("empty file")?)?;
    let detail = json::parse(lines.next().ok_or("no detail line")?)?;
    let workload = detail.get("workload").and_then(Value::as_str).ok_or("no workload")?;
    let steps = detail.get(STEPS_KEY).and_then(Value::as_f64).ok_or("no steps_per_round")?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err("run is not correct".into());
    }
    let metrics = result.get("metrics").and_then(Value::as_obj).ok_or("no metrics")?;
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .chain([(STEPS_KEY.to_string(), steps)])
        .collect();
    Ok((workload.to_string(), values))
}

fn read_set(dir: &str) -> Result<Samples, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut out = Samples::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (workload, values) = read_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for (name, v) in values {
            out.entry((workload.clone(), name)).or_default().push(v);
        }
    }
    Ok(out)
}

/// What two sets of runs say about one end-to-end metric of one workload.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn text(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
        }
    }
}

/// The verdict for one end-to-end metric of one workload.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    let iqr_a = sa.q3 - sa.q1;
    let gain = match better {
        Better::Higher => sb.median - sa.median,
        Better::Lower => sa.median - sb.median,
    };
    let (mut wins, mut pairs) = (0usize, 0usize);
    for (x, y) in a.iter().zip(b) {
        pairs += 1;
        let b_wins = match better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        };
        wins += usize::from(b_wins);
    }
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > iqr_a {
        Verdict::Improved
    } else if -gain > bound * sa.median.abs() && -gain > iqr_a {
        Verdict::Regressed
    } else if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn show(s: &Summary) -> String {
    format!("{:.5} [{:.5}, {:.5}] n={}", s.median, s.q1, s.q3, s.n)
}

/// One line per (workload, metric) of the two sets, and whether nothing
/// regressed and nothing is unresolved.
fn judge(a: &Samples, b: &Samples, names: (&str, &str)) -> Result<(Vec<String>, bool), String> {
    let declared = declared()?;
    let mut clean = true;
    let mut lines = Vec::new();
    for (key, va) in a {
        let Some(vb) = b.get(key) else {
            lines.push(format!("{} {} | only in {}", key.0, key.1, names.0));
            continue;
        };
        if key.1 == STEPS_KEY {
            if va.iter().chain(vb).any(|v| *v != va[0]) {
                return Err(format!("{}: runs differ in steps per round", key.0));
            }
            continue;
        }
        let (sa, sb) = (stats::summarize(va), stats::summarize(vb));
        let change = if sa.median == 0.0 { 0.0 } else { (sb.median - sa.median) / sa.median.abs() };
        let verdict = match declared.get(&key.1) {
            Some((better, Some(bound))) => {
                let v = verdict(va, vb, *better, *bound);
                clean &= !matches!(v, Verdict::Regressed | Verdict::Unresolved);
                v.text()
            }
            Some((_, None)) if va == vb => "same",
            Some((_, None)) => "-",
            None => "not declared",
        };
        lines.push(format!(
            "{} {} | {} | {} | {:+.2}% | {verdict}",
            key.0,
            key.1,
            show(&sa),
            show(&sb),
            change * 100.0
        ));
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        lines.push(format!("{} {} | only in {}", key.0, key.1, names.1));
    }
    Ok((lines, clean))
}

/// Compare the sets in `dir_a` and `dir_b`; prints one line per
/// (workload, metric). `Ok(true)` when nothing regressed and nothing is
/// unresolved.
pub fn run(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (lines, clean) = judge(&read_set(dir_a)?, &read_set(dir_b)?, (dir_a, dir_b))?;
    println!("workload metric | A median [q1, q3] n | B median [q1, q3] n | change | verdict");
    for line in lines {
        println!("{line}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];

    fn shifted(by: f64) -> Vec<f64> {
        A.iter().map(|v| v * by).collect()
    }

    #[test]
    fn same_code_is_unchanged() {
        let b: Vec<f64> = A.iter().rev().copied().collect();
        assert_eq!(verdict(&A, &b, Better::Lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&A, &b, Better::Higher, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_win_in_nine_tenths_of_pairs_is_improved() {
        assert_eq!(verdict(&A, &shifted(0.9), Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(verdict(&A, &shifted(1.1), Better::Higher, 0.1), Verdict::Improved);
        // Winning every pair by less than A's own spread is not a gain.
        assert_eq!(verdict(&A, &shifted(0.9999), Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed() {
        assert_eq!(verdict(&A, &shifted(1.2), Better::Lower, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&A, &shifted(0.8), Better::Higher, 0.1), Verdict::Regressed);
        // Worse, but within the bound.
        assert_eq!(verdict(&A, &shifted(1.05), Better::Lower, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0];
        assert_eq!(verdict(&noisy, &A, Better::Lower, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&A, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
    }

    /// The exit code: clean on a perfect A/A (every line `unchanged`),
    /// not clean once a bounded metric regressed or cannot be resolved.
    #[test]
    fn identical_sets_are_clean_and_a_regression_is_not() {
        let key = |m: &str| ("serve_read".to_string(), m.to_string());
        let a: Samples =
            [(key("step_ms_p50"), A.to_vec()), (key("ps.cache_hit_rate"), vec![0.3; 10])]
                .into_iter()
                .collect();
        let (lines, clean) = judge(&a, &a, ("a", "b")).expect("declaration parses");
        assert!(clean, "{lines:?}");
        assert!(lines[1].ends_with("| unchanged") && lines[0].ends_with("| same"), "{lines:?}");

        let mut b = a.clone();
        b.insert(key("step_ms_p50"), shifted(1.3));
        let (lines, clean) = judge(&a, &b, ("a", "b")).expect("declaration parses");
        assert!(!clean && lines[1].ends_with("| REGRESSED"), "{lines:?}");
        // A per-layer metric has no bound: its change alone never fails.
        b = a.clone();
        b.insert(key("ps.cache_hit_rate"), vec![0.1; 10]);
        assert!(judge(&a, &b, ("a", "b")).expect("declaration parses").1);
        // Runs with rounds of different lengths are not comparable.
        let mut a = a;
        a.insert(key(STEPS_KEY), vec![2000.0; 10]);
        b.insert(key(STEPS_KEY), vec![40.0; 10]);
        assert!(judge(&a, &b, ("a", "b")).is_err());
    }

    #[test]
    fn the_declaration_parses_and_bounds_only_end_to_end_metrics() {
        let d = declared().expect("BENCHMARK.json parses");
        assert_eq!(d["setup_s"].0, Better::Lower);
        assert_eq!(d["tokens_per_s"].0, Better::Higher);
        assert!(d["tokens_per_s"].1.is_some_and(|b| b > 0.0 && b <= 0.25));
        assert!(d["ps.cache_hit_rate"].1.is_none());
    }

    #[test]
    fn a_run_file_yields_its_workload_and_values() {
        let text = "noise\n{\"workload\":\"serve_read\",\"steps_per_round\":2000,\"detail\":{}}\n\
            {\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let (w, v) = read_run(text).expect("parses");
        let want = vec![("setup_s".to_string(), 1.5), (STEPS_KEY.to_string(), 2000.0)];
        assert_eq!((w.as_str(), v), ("serve_read", want));
        assert!(read_run(&text.replace("true", "false")).is_err());
    }
}
