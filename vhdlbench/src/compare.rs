//! `vhdlbench compare PARENT_DIR CHANGE_DIR`: the acceptance rule for a
//! change that claims a gain, and the regression check for everything
//! else.
//!
//! Each directory holds one subdirectory per run (`run01/`, `run02/`, ...),
//! each with the `<workload>.json` files of an untraced run. Runs pair up
//! in name order; alternate which commit runs first when producing them.
//!
//! - The claimed `workload:metric` is a gain only with at least ten pairs,
//!   a win in at least nine tenths of them (ties count for neither), and
//!   medians further apart than the parent's interquartile spread.
//! - Every other workload × end-to-end metric must not get worse by more
//!   than its `BENCHMARK.json` bound. When the parent's own spread is wider
//!   than the bound the pairing is `unresolved`, unless every change run
//!   beats every parent run.
//! - A workload on which the change fails more operations than the parent
//!   fails the comparison, and a claim on it is not met.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vhdl_server::json::{parse, Json};

use crate::stats::quartiles;

const MIN_PAIRS: usize = 10;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Bench {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

fn load_bench(path: &Path) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let arr = |k: &str| {
        j.get(k)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `{k}` list", path.display()))
    };
    let workloads = arr("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let metrics = arr("end_to_end")?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))?;
    Ok(Bench { workloads, metrics })
}

/// One workload's result file of one run.
struct WorkloadRun {
    /// Failed or wrong operations; a run whose result is not `correct`
    /// counts at least one.
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// `runs[i][workload]` for each run subdirectory, in name order.
type Runs = Vec<BTreeMap<String, WorkloadRun>>;

fn load_runs(dir: &Path, workloads: &[String]) -> Result<Runs, String> {
    let mut subdirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    let mut runs = Vec::new();
    for sub in subdirs {
        let mut run = BTreeMap::new();
        for w in workloads {
            let path = sub.join(format!("{w}.json"));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let j = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let Some(Json::Obj(ms)) = j.get("metrics") else {
                return Err(format!("{}: no metrics", path.display()));
            };
            let (Some(correct), Some(failed)) = (
                j.get("correct").and_then(Json::as_bool),
                j.get("failed").and_then(Json::as_u64),
            ) else {
                return Err(format!("{}: no correct or failed field", path.display()));
            };
            let metrics = ms
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            run.insert(
                w.clone(),
                WorkloadRun {
                    failed: failed.max(u64::from(!correct)),
                    metrics,
                },
            );
        }
        if !run.is_empty() {
            runs.push(run);
        }
    }
    if runs.is_empty() {
        return Err(format!(
            "{}: no run subdirectories with result files",
            dir.display()
        ));
    }
    Ok(runs)
}

/// How the change compares with the parent on one workload × metric.
#[derive(Debug, PartialEq)]
enum Verdict {
    Gain,
    ClaimNotMet,
    Better,
    WithinBound,
    Regression,
    Unresolved,
}

struct Row {
    parent: (f64, f64, f64),
    change: (f64, f64, f64),
    /// Relative change of the median, positive when worse.
    worse_by: f64,
    verdict: Verdict,
}

fn judge(m: &Metric, pairs: &[(f64, f64)], claimed: bool) -> Option<Row> {
    if pairs.len() < 2 {
        return None;
    }
    let better = |a: f64, b: f64| if m.lower_is_better { a < b } else { a > b };
    let p: Vec<f64> = pairs.iter().map(|x| x.0).collect();
    let c: Vec<f64> = pairs.iter().map(|x| x.1).collect();
    let (parent, change) = (quartiles(&p), quartiles(&c));
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (change.1 - parent.1) / parent.1.abs().max(f64::MIN_POSITIVE);
    let iqr = parent.2 - parent.0;
    let verdict = if claimed {
        let wins = pairs.iter().filter(|(a, b)| better(*b, *a)).count();
        let enough = pairs.len() >= MIN_PAIRS && wins * 10 >= pairs.len() * 9;
        let apart = better(change.1, parent.1) && (change.1 - parent.1).abs() > iqr;
        if enough && apart {
            Verdict::Gain
        } else {
            Verdict::ClaimNotMet
        }
    } else {
        let every_better = c.iter().all(|cv| p.iter().all(|pv| better(*cv, *pv)));
        if every_better {
            Verdict::Better
        } else if iqr / parent.1.abs().max(f64::MIN_POSITIVE) > m.bound {
            Verdict::Unresolved
        } else if worse_by > m.bound {
            Verdict::Regression
        } else {
            Verdict::WithinBound
        }
    };
    Some(Row {
        parent,
        change,
        worse_by,
        verdict,
    })
}

pub fn main(args: &[String]) -> i32 {
    match compare(args) {
        Ok(ok) => i32::from(!ok),
        Err(e) => {
            eprintln!("vhdlbench compare: {e}");
            2
        }
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut claim: Option<(String, String)> = None;
    let mut bench_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--claim" => {
                let v = it.next().ok_or("--claim needs WORKLOAD:METRIC")?;
                let (w, m) = v.split_once(':').ok_or("--claim needs WORKLOAD:METRIC")?;
                claim = Some((w.to_string(), m.to_string()));
            }
            "--bench" => bench_path = PathBuf::from(it.next().ok_or("--bench needs a file")?),
            d => dirs.push(PathBuf::from(d)),
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        return Err("expected PARENT_DIR and CHANGE_DIR".to_string());
    };
    let bench = load_bench(&bench_path)?;
    if let Some((w, m)) = &claim {
        if !bench.workloads.contains(w) || !bench.metrics.iter().any(|x| &x.name == m) {
            return Err(format!(
                "claim {w}:{m} names no workload × end-to-end metric"
            ));
        }
    }
    let parent = load_runs(parent_dir, &bench.workloads)?;
    let change = load_runs(change_dir, &bench.workloads)?;
    Ok(judge_runs(&bench, &parent, &change, claim.as_ref()))
}

/// Prints a row per workload × end-to-end metric, and per workload whose
/// change fails more operations than the parent. Returns whether nothing
/// regressed and the claim, if any, holds.
fn judge_runs(
    bench: &Bench,
    parent: &Runs,
    change: &Runs,
    claim: Option<&(String, String)>,
) -> bool {
    let n = parent.len().min(change.len());
    println!(
        "{n} pairs; quartiles as Python's statistics.quantiles(n=4); worse = median change, positive when worse"
    );
    println!(
        "{:<9} {:<12} {:>33} {:>33} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent q1 / median / q3",
        "change q1 / median / q3",
        "worse",
        "bound"
    );
    let mut ok = true;
    for w in &bench.workloads {
        let failed = |runs: &Runs| -> u64 {
            runs[..n]
                .iter()
                .filter_map(|r| r.get(w))
                .map(|r| r.failed)
                .sum()
        };
        // A change that fails more operations than the parent gains nothing
        // and regresses, whatever its timings.
        let (parent_failed, change_failed) = (failed(parent), failed(change));
        let more_failures = change_failed > parent_failed;
        if more_failures {
            println!(
                "{w:<9} {:<12} parent failed {parent_failed}, change failed {change_failed}  MoreFailures",
                "failed"
            );
            ok = false;
        }
        for m in &bench.metrics {
            let pairs: Vec<(f64, f64)> = (0..n)
                .filter_map(|i| {
                    Some((
                        *parent[i].get(w)?.metrics.get(&m.name)?,
                        *change[i].get(w)?.metrics.get(&m.name)?,
                    ))
                })
                .collect();
            let claimed = claim == Some(&(w.clone(), m.name.clone()));
            let Some(mut r) = judge(m, &pairs, claimed) else {
                println!("{w:<9} {:<12} fewer than two pairs", m.name);
                ok &= !claimed;
                continue;
            };
            if claimed && more_failures {
                r.verdict = Verdict::ClaimNotMet;
            }
            ok &= !matches!(r.verdict, Verdict::Regression | Verdict::ClaimNotMet);
            let q = |t: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", t.0, t.1, t.2);
            println!(
                "{w:<9} {:<12} {:>33} {:>33} {:>7.1}% {:>5.0}%  {:?}",
                m.name,
                q(r.parent),
                q(r.change),
                r.worse_by * 100.0,
                m.bound * 100.0,
                r.verdict
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(bound: f64) -> Metric {
        Metric {
            name: "pass_ms".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn a_claim_needs_nine_wins_in_ten_and_medians_apart() {
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 80.0 + i as f64))
            .collect();
        assert_eq!(
            judge(&metric(0.1), &pairs, true).unwrap().verdict,
            Verdict::Gain
        );
        // Two losses in ten pairs.
        let mut two_lost = pairs.clone();
        two_lost[0].1 = 200.0;
        two_lost[1].1 = 200.0;
        assert_eq!(
            judge(&metric(0.1), &two_lost, true).unwrap().verdict,
            Verdict::ClaimNotMet
        );
        // Nine pairs are too few even when all win.
        assert_eq!(
            judge(&metric(0.1), &pairs[..9], true).unwrap().verdict,
            Verdict::ClaimNotMet
        );
        // Wins inside the parent's own spread do not count as a gain.
        let close: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + 10.0 * i as f64, 99.0 + 10.0 * i as f64))
            .collect();
        assert_eq!(
            judge(&metric(0.1), &close, true).unwrap().verdict,
            Verdict::ClaimNotMet
        );
    }

    #[test]
    fn regressions_and_unresolved_spreads() {
        let same: Vec<(f64, f64)> = (0..10).map(|i| (100.0 + (i % 3) as f64, 101.0)).collect();
        assert_eq!(
            judge(&metric(0.1), &same, false).unwrap().verdict,
            Verdict::WithinBound
        );
        let slower: Vec<(f64, f64)> = (0..10).map(|i| (100.0 + (i % 3) as f64, 120.0)).collect();
        assert_eq!(
            judge(&metric(0.1), &slower, false).unwrap().verdict,
            Verdict::Regression
        );
        // The parent spreads over ±30%: a 5% slowdown is not "unchanged".
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| (70.0 + 60.0 * (i % 2) as f64, 105.0))
            .collect();
        assert_eq!(
            judge(&metric(0.1), &noisy, false).unwrap().verdict,
            Verdict::Unresolved
        );
        let faster: Vec<(f64, f64)> = (0..10)
            .map(|i| (70.0 + 60.0 * (i % 2) as f64, 50.0))
            .collect();
        assert_eq!(
            judge(&metric(0.1), &faster, false).unwrap().verdict,
            Verdict::Better
        );
    }

    fn runs(failed: u64, values: &[f64]) -> Runs {
        values
            .iter()
            .map(|v| {
                let run = WorkloadRun {
                    failed,
                    metrics: [("pass_ms".to_string(), *v)].into(),
                };
                [("w".to_string(), run)].into()
            })
            .collect()
    }

    #[test]
    fn more_failures_fail_the_comparison_and_the_claim() {
        let bench = Bench {
            workloads: vec!["w".to_string()],
            metrics: vec![metric(0.1)],
        };
        let claim = ("w".to_string(), "pass_ms".to_string());
        let slow: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let fast: Vec<f64> = (0..10).map(|i| 80.0 + i as f64).collect();
        assert!(judge_runs(
            &bench,
            &runs(0, &slow),
            &runs(0, &fast),
            Some(&claim)
        ));
        // Faster, but failing where the parent did not.
        assert!(!judge_runs(
            &bench,
            &runs(0, &slow),
            &runs(1, &fast),
            Some(&claim)
        ));
        assert!(!judge_runs(&bench, &runs(0, &slow), &runs(1, &fast), None));
        // Failing no more than the parent does is no regression.
        assert!(judge_runs(&bench, &runs(1, &slow), &runs(1, &slow), None));
    }
}
