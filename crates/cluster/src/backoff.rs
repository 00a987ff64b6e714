//! The crate's one backoff rule: how long a read that found every replica
//! inside a fail-stop outage waits, in simulated time, before the next
//! attempt, and when it is abandoned. Both replay engines call it.

/// Delay before the first retry.
const BASE_US: u64 = 200;
/// The delay doubles per attempt up to `BASE_US << MAX_SHIFT`.
const MAX_SHIFT: u32 = 7;
/// A read is abandoned (and its wait recorded) after this many retries.
const MAX_ATTEMPTS: u32 = 16;

/// Delay before the retry that follows failed attempt `attempt` (0 = the
/// arrival), or `None` once the read has spent its retries and is
/// abandoned: 200 µs × 2^min(k, 7), so a read waits out 0.2558 s of
/// whole-array outage before it gives up.
pub(crate) fn retry_delay_us(attempt: u32) -> Option<u64> {
    (attempt < MAX_ATTEMPTS).then(|| BASE_US << attempt.min(MAX_SHIFT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_sixteen_retries_over_a_quarter_second() {
        let delays: Vec<u64> = (0..).map_while(retry_delay_us).collect();
        assert_eq!(delays.len(), 16);
        assert_eq!(delays[0], 200);
        assert_eq!(delays[7], 25_600);
        assert_eq!(delays[15], 25_600, "capped, not doubling forever");
        assert_eq!(delays.iter().sum::<u64>(), 255_800);
        assert_eq!(retry_delay_us(u32::MAX), None);
    }
}
