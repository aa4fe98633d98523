//! ALLOWLISTED fixture for `no-uncalled-pub`: an item kept on purpose,
//! with no caller in program code, is exempted by name:
//!
//!     no-uncalled-pub demo/src/lib.rs kept_for_integration_tests

/// Test support that an integration test under `tests/` needs.
pub fn kept_for_integration_tests() -> u32 {
    7
}
