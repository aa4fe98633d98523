//! Property tests for the lint lexer and the two-pass analyzer, plus the
//! whole-workspace parseability check the ISSUE asks for: xylem-lint must
//! be able to lex every `.rs` file in the workspace.

use proptest::prelude::*;

use xylem_lint::lexer::lex;
use xylem_lint::{analyze_source, analyze_workspace, check_source, collect_rust_files, Allowlist};

#[test]
fn every_workspace_file_lexes() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let files = collect_rust_files(&root).expect("workspace walks");
    assert!(
        files.len() > 30,
        "workspace walk looks wrong: only {} .rs files",
        files.len()
    );
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel)).expect("file reads");
        assert!(
            lex(&src).is_ok(),
            "{} does not lex: {:?}",
            rel.display(),
            lex(&src).err()
        );
    }
}

/// Alphabet biased toward the lexer's tricky constructs: quotes, hashes,
/// escapes, comment delimiters, dots, exponents, and the operators the
/// dataflow rules pattern-match on (`+=`, `=>`, `.0`).
const ALPHABET: &[u8] = b"abr#\"'\\/*.0123456789eE_<>(){}!,:; \n-+xf=&|";

/// Vocabulary biased toward the symbol-table pass: fn/let/use skeletons,
/// item and `impl` headers, unit newtypes, collection names, degradation
/// markers, and the operators the cross-token rules look for. Random sequences of these
/// produce almost-plausible Rust that stresses pass 1 + pass 2 far more
/// densely than raw byte soup.
const VOCAB: &[&str] = &[
    "fn",
    "let",
    "mut",
    "use",
    "pub",
    "impl",
    "struct",
    "static",
    "const",
    "type",
    "where",
    "cfg",
    "test",
    "match",
    "if",
    "while",
    "return",
    "Err",
    "Ok",
    "for",
    "in",
    "f64",
    "usize",
    "0.0",
    "0usize",
    "1e-3",
    "acc",
    "sum",
    "x",
    "HashMap",
    "HashSet",
    "Celsius",
    "Watts",
    "fallback",
    "retry_budget",
    "xylem_obs",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "[",
    "]",
    "::",
    ":",
    ";",
    ",",
    ".",
    ".0",
    "+=",
    "=",
    "=>",
    "->",
    "&",
    "#",
    "\"s\"",
    "'a",
    "//c\n",
    "|",
];

/// Workspace mounts spanning every zone the rules dispatch on.
const MOUNTS: &[&str] = &[
    "crates/thermal/src/solve.rs",  // hot-path + instrumented
    "crates/thermal/src/reduce.rs", // hot-path, raw-accum exempt
    "crates/core/src/dtm.rs",       // hot-path + instrumented
    "crates/obs/src/sink.rs",       // instrumented prefix, obs-coverage exempt
    "crates/thermal/src/units.rs",  // unit-escape exempt
    "crates/stack/src/builder.rs",  // free-zone library
    "crates/bench/src/main.rs",     // binary crate
    "examples/demo.rs",             // caller only, for no-uncalled-pub
    "perfbench/src/main.rs",        // caller only
    "crates/core/tests/it.rs",      // neither defines nor calls
];

/// Mounts the `(soup, mount)` pairs as one workspace and checks the
/// workspace-wide rule's findings.
fn check_workspace(files: &[(String, usize)]) -> Result<(), String> {
    let pairs: Vec<(&str, &str)> = files
        .iter()
        .map(|(src, mount)| (MOUNTS[*mount], src.as_str()))
        .collect();
    for d in analyze_workspace(&pairs) {
        prop_assert_eq!(d.rule, "no-uncalled-pub");
        prop_assert!(d.line >= 1);
        prop_assert!(!d.symbol.is_empty());
    }
    Ok(())
}

fn to_source(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The lexer must never panic: every input either tokenizes or yields
    // a LexError with a line number.
    #[test]
    fn lexer_total_on_adversarial_input(bytes in collection::vec(any::<u8>(), 0..200)) {
        let src = to_source(&bytes);
        match lex(&src) {
            Ok(toks) => {
                for t in &toks {
                    prop_assert!(t.line >= 1);
                }
            }
            Err(e) => prop_assert!(e.line >= 1),
        }
    }

    // check_source is equally total: any input yields diagnostics (possibly
    // a single `lex` diagnostic), never a panic.
    #[test]
    fn check_source_total(bytes in collection::vec(any::<u8>(), 0..200)) {
        let src = to_source(&bytes);
        let ds = check_source("crates/thermal/src/fuzz.rs", &src, &Allowlist::default());
        for d in &ds {
            prop_assert!(d.line >= 1);
        }
    }

    // Token lines are monotonically non-decreasing in source order.
    #[test]
    fn token_lines_monotone(bytes in collection::vec(any::<u8>(), 0..200)) {
        let src = to_source(&bytes);
        if let Ok(toks) = lex(&src) {
            for w in toks.windows(2) {
                prop_assert!(w[0].line <= w[1].line);
            }
        }
    }

    // The full two-pass analyzer (symbol table + nine rules) is total on
    // byte soup at every zone mount: no panics, no zero line numbers.
    #[test]
    fn analyzer_total_on_byte_soup(
        bytes in collection::vec(any::<u8>(), 0..200),
        mount in 0..MOUNTS.len(),
    ) {
        let src = to_source(&bytes);
        for d in analyze_source(MOUNTS[mount], &src) {
            prop_assert!(d.line >= 1);
        }
    }

    // ...and on keyword-dense pseudo-Rust, which reaches much deeper into
    // the fn-span / unit-binding / accumulator bookkeeping of pass 1.
    #[test]
    fn analyzer_total_on_keyword_soup(
        words in collection::vec(0..VOCAB.len(), 0..120),
        mount in 0..MOUNTS.len(),
    ) {
        let src: String = words
            .iter()
            .flat_map(|&w| [VOCAB[w], " "])
            .collect();
        for d in analyze_source(MOUNTS[mount], &src) {
            prop_assert!(d.line >= 1);
            prop_assert!(!d.symbol.is_empty() || d.rule == "lex");
        }
    }

    // The workspace-wide rule is total too: several soup files mounted
    // across definition, caller and test paths never panic it.
    #[test]
    fn workspace_analyzer_total_on_byte_soup(
        files in collection::vec((collection::vec(any::<u8>(), 0..120), 0..MOUNTS.len()), 0..5),
    ) {
        let files: Vec<(String, usize)> =
            files.iter().map(|(bytes, mount)| (to_source(bytes), *mount)).collect();
        check_workspace(&files)?;
    }

    #[test]
    fn workspace_analyzer_total_on_keyword_soup(
        files in collection::vec((collection::vec(0..VOCAB.len(), 0..80), 0..MOUNTS.len()), 0..5),
    ) {
        let files: Vec<(String, usize)> = files
            .iter()
            .map(|(words, mount)| {
                (words.iter().flat_map(|&w| [VOCAB[w], " "]).collect(), *mount)
            })
            .collect();
        check_workspace(&files)?;
    }
}
