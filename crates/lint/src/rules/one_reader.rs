//! **one-reader** — product code decodes JSON from its text.
//!
//! Every document the product reads (a request line, a reply, a stored
//! schedule) is decoded by one typed decoder pulling events off a
//! `json::Reader`. A second source once decoded the same documents from a
//! `Value` tree built by `Value::parse`; it doubled the decoders' generic
//! surface and served only tests after the reader took over. So non-test
//! code in the crates that read documents may not call `Value::parse`: a
//! new decode goes through the reader, not through a tree. The CLI under
//! `crates/service/src/bin/` pretty-prints whatever reply it is given, and
//! is exempt.

use crate::report::Finding;
use crate::scan::SourceFile;

const RULE: &str = "one-reader";

/// Directories whose non-test code is audited.
const SCOPE: &[&str] = &[
    "crates/lp/src/",
    "crates/core/src/",
    "crates/schedule/src/",
    "crates/topology/src/",
    "crates/service/src/",
];

/// Directories inside [`SCOPE`] that are not audited.
const EXEMPT: &[&str] = &["crates/service/src/bin/"];

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        let in_scope = |dirs: &[&str]| dirs.iter().any(|dir| file.rel.starts_with(dir));
        if !in_scope(SCOPE) || in_scope(EXEMPT) {
            continue;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            let parses = toks[i].is_ident("Value")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("parse"));
            if parses && !file.in_test(i) {
                out.push(Finding::new(
                    RULE,
                    &file.rel,
                    toks[i].line,
                    "`Value::parse` in product code — decode the text with a typed \
                     decoder over `json::Reader` (`json::decode_text`), not from a tree"
                        .to_string(),
                ));
            }
        }
    }
    out
}
