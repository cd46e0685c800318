//! Adaptive retry budgets: a deterministic token bucket that bounds how
//! much *extra* load retries and hedges may add.
//!
//! Under a correlated outage, fixed per-query retry budgets multiply
//! offered load exactly when capacity is lowest — the metastable-failure
//! shape. A [`RetryBudget`] makes retry capacity a *shared, earned*
//! resource: every retry or hedge spends one token, and tokens are refilled
//! only by successful first attempts. While the platform is healthy the
//! bucket stays full and behavior is unchanged; when first attempts start
//! failing en masse the bucket drains and retries collapse to near zero
//! instead of amplifying the storm. All accounting is plain arithmetic on
//! the serving loop's own event order — no clocks, no RNG — so runs stay
//! bit-identical across thread counts.

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::knobs::family;
use crate::Result;

/// Tokens earned per successful first attempt (capped at capacity):
/// healthy traffic funds the right to retry.
pub const REFILL_PER_SUCCESS: f64 = 0.1;

/// Token-bucket knobs for [`RetryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryBudgetPolicy {
    /// Bucket capacity in tokens; a retry or hedge spends one token. The
    /// bucket starts a serving run full.
    pub max_tokens: f64,
}

impl Default for RetryBudgetPolicy {
    fn default() -> Self {
        RetryBudgetPolicy { max_tokens: 32.0 }
    }
}

impl RetryBudgetPolicy {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] for a non-positive or
    /// non-finite capacity.
    pub fn validate(&self) -> Result<()> {
        if self.max_tokens <= 0.0 || !self.max_tokens.is_finite() {
            return Err(FaasError::InvalidArgument(format!(
                "retry budget max_tokens must be positive and finite: {}",
                self.max_tokens
            )));
        }
        Ok(())
    }
}

family! {
    RetryBudgetPolicy, "retry-budget", env;
    base RetryBudgetPolicy::default();
    check RetryBudgetPolicy::validate;
    "GILLIS_RETRY_BUDGET_MAX", "max_tokens", "unset",
        "retry-budget bucket capacity; enables the budget" => [max_tokens];
}

/// Live token bucket for one serving run (see [`RetryBudgetPolicy`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryBudget {
    policy: RetryBudgetPolicy,
    tokens: f64,
}

impl RetryBudget {
    /// Starts a full bucket.
    pub fn new(policy: RetryBudgetPolicy) -> Self {
        RetryBudget {
            policy,
            tokens: policy.max_tokens,
        }
    }

    /// Tokens currently available (never negative).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Spends `cost` tokens (a fraction of a full-restart retry); `false` —
    /// and no spend — when the bucket holds less than `cost`. Stage-level
    /// recovery prices a resumed retry at its true marginal cost: the
    /// resumed stage's share of the whole plan, not a full token. A
    /// non-positive or non-finite cost spends nothing and is allowed.
    pub fn try_spend_cost(&mut self, cost: f64) -> bool {
        // `partial_cmp` (not `!(cost > 0.0)`): NaN must land in the
        // degenerate free branch, and that needs to be legible.
        if cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !cost.is_finite() {
            return true;
        }
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Credits one successful first attempt, capped at capacity.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + REFILL_PER_SUCCESS).min(self.policy.max_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation() {
        assert!(RetryBudgetPolicy::default().validate().is_ok());
        for max_tokens in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = RetryBudgetPolicy { max_tokens };
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bucket_drains_refills_and_never_goes_negative() {
        let mut b = RetryBudget::new(RetryBudgetPolicy { max_tokens: 2.0 });
        assert_eq!(b.tokens(), 2.0, "a bucket starts full");
        assert!(b.try_spend_cost(1.0));
        assert!(b.try_spend_cost(1.0));
        assert!(!b.try_spend_cost(1.0), "empty bucket denies");
        assert_eq!(b.tokens(), 0.0);
        for _ in 0..5 {
            b.refill();
        }
        assert!(!b.try_spend_cost(1.0), "half a token is not a token");
        for _ in 0..6 {
            b.refill();
        }
        assert!(b.try_spend_cost(1.0));
        for _ in 0..100 {
            b.refill();
        }
        assert_eq!(b.tokens(), 2.0, "refill caps at capacity");
    }

    #[test]
    fn fractional_costs_spend_marginally() {
        let mut b = RetryBudget::new(RetryBudgetPolicy { max_tokens: 1.0 });
        // Four quarter-cost resumed retries fit where one full restart did.
        for _ in 0..4 {
            assert!(b.try_spend_cost(0.25));
        }
        assert!(!b.try_spend_cost(0.25), "bucket is exactly empty");
        assert_eq!(b.tokens(), 0.0);
        // Degenerate costs are free and never block.
        assert!(b.try_spend_cost(0.0));
        assert!(b.try_spend_cost(-1.0));
        assert!(b.try_spend_cost(f64::NAN));
    }
}
