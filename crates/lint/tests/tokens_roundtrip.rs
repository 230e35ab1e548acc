//! Tokenizer losslessness: concatenating every token's span must
//! reproduce the input byte-for-byte, for every real source file in this
//! workspace, for generated token soup and for arbitrary Unicode. A
//! tokenizer that drops or duplicates bytes would silently shift finding
//! locations.

use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Every `.rs` file under the workspace root (sources, fixtures, tests),
/// skipping build output and VCS internals.
fn workspace_rust_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf();
    let mut files = Vec::new();
    let mut stack = vec![root];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn tokens_tile_every_workspace_file_losslessly() {
    let files = workspace_rust_files();
    assert!(
        files.len() > 50,
        "workspace walk found only {} files — wrong root?",
        files.len()
    );
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue; // not UTF-8, so no `&str` to tokenize; the analyzer fails on it
        };
        let rebuilt: String = lint::tokens::tokenize(&src)
            .iter()
            .map(|t| t.text(&src))
            .collect();
        assert_eq!(
            rebuilt,
            src,
            "token spans must tile {} byte-for-byte",
            path.display()
        );
    }
}

/// Generated "token soup": fragments that exercise the tricky lexical
/// corners — raw/byte/c-string prefixes, nested comments, char literals
/// vs lifetimes, numeric suffixes — joined in random order.
fn arb_soup() -> impl Strategy<Value = String> {
    let fragments = vec![
        "fn f() {}",
        "let s = \"two\\nlines\";",
        "let r = r#\"raw \" quote\"#;",
        "let c = cr##\"c raw\"##;",
        "let b = b\"bytes\";",
        "let ch = 'x';",
        "let bc = b'\\n';",
        "let lt: &'static str = \"\";",
        "// line comment\n",
        "/* block /* nested */ comment */",
        "let n = 0xFF_u64;",
        "let e = 1.5e-3_f64;",
        "a::<u64>::b();",
        "m!{ inner }",
        "#[cfg(test)]",
        "\n",
        " ",
        "…", // non-ASCII identifier byte territory
    ];
    prop::collection::vec(prop::sample::select(fragments), 0..40).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokens_tile_generated_soup_losslessly(src in arb_soup()) {
        let rebuilt: String = lint::tokens::tokenize(&src)
            .iter()
            .map(|t| t.text(&src))
            .collect();
        prop_assert_eq!(rebuilt, src);
    }

    #[test]
    fn tokens_tile_arbitrary_unicode_losslessly(src in "\\PC{0,300}") {
        let rebuilt: String = lint::tokens::tokenize(&src)
            .iter()
            .map(|t| t.text(&src))
            .collect();
        prop_assert_eq!(rebuilt, src);
    }
}
