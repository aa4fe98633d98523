//! NEGATIVE fixture for `no-uncalled-pub`, mounted at a crate root: each
//! `pub` item below has a caller in program code. The rule fixtures mount
//! the callers: another crate's `src/`, the workspace `examples/`,
//! `perfbench/src/` and a crate's `benches/`.

pub fn called_from_another_crate() -> u32 {
    1
}

pub fn called_from_an_example() -> u32 {
    2
}

pub fn called_from_perfbench() -> u32 {
    3
}

pub struct NamedInABench;

/// Called below, in this file's own program code.
pub fn called_in_this_file() -> u32 {
    4
}

fn helper() -> u32 {
    called_in_this_file()
}
