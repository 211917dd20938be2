//! Every workload end to end on a small corpus, through the built
//! binary: untraced and traced runs must print a correct result line with
//! their metrics, and bad arguments must fail without one.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["index-100k", "serve-100k", "serve-100k-rpc-mixed"];

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lsi-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_workload_checks_its_answers_at_smoke_size() {
    for workload in WORKLOADS {
        for (trace, metric) in [("0", "\"query_p99_ms\""), ("1", "\"linalg.matvecs\"")] {
            let (ok, stdout) = bench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--docs",
                "3000",
            ]);
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload} trace={trace}: {last}"
            );
            assert!(
                last.contains("\"failed\": 0, "),
                "{workload} trace={trace}: {last}"
            );
            assert!(last.contains(metric), "{workload} trace={trace}: {last}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let cases: [&[&str]; 3] = [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "serve-100k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--seed", "1"],
    ];
    for args in cases {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
