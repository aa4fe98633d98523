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

/// A link whose `width` field shares its name with an accessor.
pub struct Link {
    width: u32,
}

impl Link {
    /// Called as a method below, beside reads of the field it shares a
    /// name with.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Passed by path as a function value below.
    pub fn doubled(width: u32) -> u32 {
        2 * width
    }
}

fn link_width() -> u32 {
    let link = Link { width: 8 };
    link.width + link.width()
}

fn doubled_widths(widths: &[u32]) -> Vec<u32> {
    widths.iter().copied().map(Link::doubled).collect()
}
