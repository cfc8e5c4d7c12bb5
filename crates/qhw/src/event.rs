//! Simulation time.
//!
//! An integer microsecond clock (no floats in the clock — reproducibility
//! again) and the units the replay and its callers count in.

/// Simulation time in microseconds.
pub type SimTime = u64;

/// One microsecond.
pub const MICRO: SimTime = 1;
/// One millisecond in simulation time.
pub const MILLIS: SimTime = 1_000;
/// One second in simulation time.
pub const SECOND: SimTime = 1_000_000;
/// One minute in simulation time.
pub const MINUTE: SimTime = 60 * SECOND;
/// One hour in simulation time.
pub const HOUR: SimTime = 60 * MINUTE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constants() {
        assert_eq!(SECOND, 1000 * MILLIS);
        assert_eq!(HOUR, 3600 * SECOND);
        assert_eq!(MICRO, 1);
    }
}
