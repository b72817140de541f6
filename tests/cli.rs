//! End-to-end tests of the `csspgo` command-line driver: the file-based
//! compile → run → profgen → merge → pgo workflow, plus the error paths
//! for malformed binaries and flags given without a value.

use csspgo::codegen::Binary;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SRC: &str = r#"
fn weight(i) {
    if (i % 7 == 0) { return 3; }
    return 1;
}
fn score(n) {
    let i = 0;
    let s = 0;
    while (i < n) {
        s = s + weight(i) * i;
        i = i + 1;
    }
    return s;
}
"#;

/// A named corruption of a valid binary.
type Mutation = (&'static str, fn(&mut Binary));

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csspgo-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `csspgo` in `dir` with `args`.
fn csspgo(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csspgo"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("csspgo runs")
}

/// Runs `csspgo`, requiring success; returns stdout.
fn ok(dir: &Path, args: &[&str]) -> String {
    let out = csspgo(dir, args);
    assert!(
        out.status.success(),
        "csspgo {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Runs `csspgo`, requiring a clean error exit (status 1, not a panic);
/// returns stderr.
fn fails(dir: &Path, args: &[&str]) -> String {
    let out = csspgo(dir, args);
    assert_eq!(
        out.status.code(),
        Some(1),
        "csspgo {args:?} must exit 1, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

/// Compiles the probed test program and collects two sample files.
fn compiled(dir: &Path) {
    std::fs::write(dir.join("svc.mini"), SRC).expect("write source");
    ok(dir, &["compile", "svc.mini", "-o", "svc.bin", "--probes"]);
    for (arg, out) in [("300", "a.json"), ("500", "b.json")] {
        let run = ok(
            dir,
            &[
                "run",
                "svc.bin",
                "--entry",
                "score",
                "--args",
                arg,
                "--repeat",
                "10",
                "--sample-period",
                "97",
                "--samples-out",
                out,
            ],
        );
        assert!(run.contains("result: "), "{run}");
    }
}

#[test]
fn compile_run_profgen_merge_pgo() {
    let dir = scratch("workflow");
    compiled(&dir);

    for format in ["flat", "probe", "context"] {
        for samples in ["a", "b"] {
            let out = format!("{samples}.{format}");
            ok(
                &dir,
                &[
                    "profgen",
                    "svc.bin",
                    "--samples",
                    &format!("{samples}.json"),
                    "--format",
                    format,
                    "-o",
                    &out,
                ],
            );
            let text = std::fs::read_to_string(dir.join(&out)).expect("profile written");
            assert!(text.contains("score"), "{format} profile names score");
        }
    }
    let context = std::fs::read_to_string(dir.join("a.context")).expect("context profile");
    assert!(
        context.contains("[score:") && context.contains("@ weight]"),
        "context profile keeps the weight-in-score context:\n{context}"
    );

    for format in ["flat", "context"] {
        let merged = ok(
            &dir,
            &[
                "merge",
                "--format",
                format,
                &format!("a.{format}"),
                &format!("b.{format}"),
            ],
        );
        assert!(merged.contains("score"), "merged {format} profile");
    }

    let pgo = ok(
        &dir,
        &["pgo", "svc.mini", "--entry", "score", "--train", "300"],
    );
    assert!(pgo.contains("variant: CSSPGO (full)"), "{pgo}");
    assert!(pgo.contains("evaluation: "), "{pgo}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_binaries_are_rejected_without_panicking() {
    let dir = scratch("malformed");
    compiled(&dir);
    let text = std::fs::read_to_string(dir.join("svc.bin")).expect("binary written");
    let good: Binary = serde_json::from_str(&text).expect("binary parses");

    let mutations: [Mutation; 5] = [
        ("func_of truncated", |b| {
            b.func_of.pop();
        }),
        ("addrs truncated", |b| {
            b.addrs.pop();
        }),
        ("entry past insts", |b| b.funcs[0].entry = b.insts.len()),
        ("func_of id out of range", |b| {
            b.func_of[0] = b.funcs.len() as u32;
        }),
        ("no registers", |b| {
            for f in &mut b.funcs {
                f.num_vregs = 0;
            }
        }),
    ];
    for (name, mutate) in mutations {
        let mut bad = good.clone();
        mutate(&mut bad);
        std::fs::write(
            dir.join("bad.bin"),
            serde_json::to_string(&bad).expect("serializes"),
        )
        .expect("write mutated binary");
        for args in [
            &["run", "bad.bin", "--entry", "score", "--args", "30"][..],
            &["profgen", "bad.bin", "--samples", "a.json"][..],
        ] {
            let err = fails(&dir, args);
            assert!(
                err.contains("inconsistent binary"),
                "{name}: {args:?} must report the inconsistency, got: {err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flags_without_values_are_errors() {
    let dir = scratch("dangling");
    compiled(&dir);
    let err = fails(
        &dir,
        &["profgen", "svc.bin", "--samples", "a.json", "--format"],
    );
    assert!(err.contains("--format needs a value"), "{err}");
    let err = fails(
        &dir,
        &[
            "run", "svc.bin", "--entry", "score", "--args", "30", "--repeat",
        ],
    );
    assert!(err.contains("--repeat needs a value"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
