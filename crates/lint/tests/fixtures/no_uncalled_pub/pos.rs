//! POSITIVE fixture for `no-uncalled-pub`, mounted at a crate root: each
//! `pub` item below is named only where a name is not a call.

pub mod engine {
    /// Named only by this crate's own `#[cfg(test)]` module.
    pub fn only_unit_tested() -> u32 {
        1
    }

    /// Named only by an integration test under `tests/`.
    pub fn only_integration_tested() -> u32 {
        2
    }

    /// Named only in a comment.
    pub fn only_commented() -> u32 {
        3
    }

    /// Named only by the crate root's `pub use`.
    pub fn only_reexported() -> u32 {
        4
    }

    /// Named only by its own `impl` blocks.
    pub struct OnlySelfNamed;

    impl Default for OnlySelfNamed {
        fn default() -> OnlySelfNamed {
            OnlySelfNamed
        }
    }

    /// A bus whose `lanes` field shares its name with an accessor.
    pub struct Bus {
        lanes: u32,
    }

    impl Bus {
        /// Named in program code only as the field: its declaration, a
        /// read, an initializer and a local binding. Only this crate's
        /// tests call it.
        pub fn lanes(&self) -> u32 {
            self.lanes
        }
    }

    fn widest(lanes: u32) -> u32 {
        let bus = Bus { lanes };
        let wide = Bus { lanes: 2 * bus.lanes };
        wide.lanes
    }
}

// only_commented() would answer 3.
pub use engine::only_reexported;

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::engine::only_unit_tested(), 1);
        let bus = super::engine::Bus { lanes: 4 };
        assert_eq!(bus.lanes(), 4);
    }
}
