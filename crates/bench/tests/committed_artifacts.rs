//! Every committed JSON record — the `BENCH_*.json` gate baselines at the
//! repo root and each line of `benchmark/results/*.jsonl` — is exactly
//! the text the serializer writes for the value it parses to. That pins
//! the writer's bytes (number formatting, escapes, key order) to files
//! written by earlier builds.

use serde_json::Value;
use std::path::{Path, PathBuf};

fn files_in(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&keep))
        .collect();
    files.sort();
    files
}

#[test]
fn committed_json_rewrites_byte_identically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = files_in(&root, |n| n.starts_with("BENCH_") && n.ends_with(".json"));
    files.extend(files_in(&root.join("benchmark/results"), |n| n.ends_with(".jsonl")));
    assert!(files.len() >= 9, "expected the committed records, found {files:?}");
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for (i, line) in text.lines().enumerate() {
            let value: Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{}:{}: {e}", file.display(), i + 1));
            assert_eq!(
                serde_json::to_string(&value).unwrap(),
                line,
                "{}:{} does not re-serialize to itself",
                file.display(),
                i + 1
            );
        }
    }
}
