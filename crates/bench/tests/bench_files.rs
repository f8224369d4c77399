//! The committed `BENCH_*.json` files the README cites: each must exist
//! at the repo root and come from a full-mode run of the one bench
//! harness (`pifo_bench::measure`), so no perf table quotes a smoke run
//! or a file written before the harness.

use std::path::Path;

/// Every `BENCH_<name>.json` token in `text`, in order, deduplicated.
fn cited_files(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (start, _) in text.match_indices("BENCH_") {
        let name: String = text[start..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        let name = name.trim_end_matches('.').to_string();
        if let Some(stem) = name.strip_suffix(".json") {
            if stem.len() > "BENCH_".len() && !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

#[test]
fn readme_bench_files_are_full_mode_harness_output() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let files = cited_files(&readme);
    assert!(
        files.len() >= 7,
        "README cites too few BENCH files: {files:?}"
    );
    for file in files {
        let path = root.join(&file);
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("README cites {file}, missing at the repo root: {e}"));
        assert!(
            json.contains("\"schema\": \"pifo-bench-v1\""),
            "{file} was not written by pifo_bench::measure"
        );
        assert!(
            json.contains("\"mode\": \"full\""),
            "{file} is not a full-mode run"
        );
    }
}

#[test]
fn cited_files_skips_globs_and_other_names() {
    let text =
        "see BENCH_tree.json, `BENCH_*.json`, BENCH_OUT_DIR, BENCH_tree.json and BENCH_pool.json.";
    assert_eq!(cited_files(text), ["BENCH_tree.json", "BENCH_pool.json"]);
}
