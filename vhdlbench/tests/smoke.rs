//! Smoke runs of every workload, untraced and traced: each must finish,
//! check its outputs without a single failure, and print exactly the
//! metrics `BENCHMARK.json` names, in its result line.

use std::path::PathBuf;
use std::process::Command;

use vhdl_server::json::{parse, Json};

fn bench() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(b: &Json, key: &str) -> Vec<(String, String)> {
    b.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs one smoke workload; returns the parsed result line.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let run = Command::new(env!("CARGO_BIN_EXE_vhdlbench"))
        .args(["--workload", workload, "--seed", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    let r = parse(last).expect("result line is JSON");
    assert_eq!(
        r.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {stdout}"
    );
    assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
    assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(out
        .join(format!(
            "{workload}{}.json",
            if trace { ".traced" } else { "" }
        ))
        .exists());
    r
}

fn metrics(r: &Json) -> Vec<(String, f64, String)> {
    match r.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("value").and_then(Json::as_f64).expect("value"),
                    v.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_reports_every_named_metric_without_failures() {
    let b = bench();
    let workloads: Vec<String> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["compile", "simulate", "serve", "rebuild"]);
    for w in &workloads {
        let e2e = metrics(&smoke(w, false));
        let got: Vec<(String, String)> =
            e2e.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
        assert_eq!(got, names(&b, "end_to_end"), "{w}");
        assert!(e2e.iter().all(|(_, v, _)| *v > 0.0), "{w}: {e2e:?}");

        let layers = metrics(&smoke(w, true));
        let got: Vec<(String, String)> = layers
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, names(&b, "per_layer"), "{w}");
        // Top-level spans cover the traced passes' wall time.
        let coverage = layers
            .iter()
            .find(|(n, _, _)| n == "trace.coverage")
            .expect("coverage")
            .1;
        assert!(coverage >= 0.95, "{w}: spans cover {coverage}");
    }
}
