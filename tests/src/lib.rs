//! Integration-test-only crate: the tests spanning multiple ALLARM crates
//! live in the `tests/` subdirectory of this package.

#![forbid(unsafe_code)]
