//! Client workload generators for end-to-end serving experiments.

use rand::RngExt;

use crate::error::FaasError;
use crate::stats::sample_exponential;
use crate::time::Micros;
use crate::Result;

/// A closed-loop client population: `clients` concurrent clients, each
/// issuing its next query as soon as the previous response returns (plus an
/// optional think time), until `total_queries` have been issued.
///
/// This is the paper's §V-C workload: "100 clients that concurrently query
/// the inference service 1000 times".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoop {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Total queries across all clients.
    pub total_queries: usize,
    /// Pause between receiving a response and sending the next query.
    pub think_time: Micros,
}

impl ClosedLoop {
    /// Creates the workload.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] if `clients == 0`.
    pub fn new(clients: usize, total_queries: usize, think_time: Micros) -> Result<Self> {
        if clients == 0 {
            return Err(FaasError::InvalidArgument(
                "closed loop needs at least one client".into(),
            ));
        }
        Ok(ClosedLoop {
            clients,
            total_queries,
            think_time,
        })
    }
}

/// Open-loop Poisson arrivals at a fixed rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson arrival process.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::InvalidArgument`] unless the rate is positive.
    pub fn new(rate_per_sec: f64) -> Result<Self> {
        if rate_per_sec <= 0.0 || rate_per_sec.is_nan() {
            return Err(FaasError::InvalidArgument(
                "arrival rate must be positive".into(),
            ));
        }
        Ok(PoissonArrivals { rate_per_sec })
    }

    /// Samples the gap to the next arrival.
    pub fn next_gap<R: RngExt + ?Sized>(&self, rng: &mut R) -> Micros {
        let secs = sample_exponential(rng, self.rate_per_sec);
        Micros::from_ms(secs * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn closed_loop_validates_clients() {
        assert!(ClosedLoop::new(0, 10, Micros::ZERO).is_err());
        let paper = ClosedLoop::new(100, 1000, Micros::ZERO).unwrap();
        assert_eq!(paper.clients, 100);
        assert_eq!(paper.total_queries, 1000);
    }

    #[test]
    fn poisson_rate_is_respected() {
        let p = PoissonArrivals::new(50.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let total: f64 = (0..5000)
            .map(|_| p.next_gap(&mut rng).as_ms() / 1000.0)
            .sum();
        let mean_gap = total / 5000.0;
        assert!((mean_gap - 0.02).abs() < 0.002, "mean gap {mean_gap}");
        assert!(PoissonArrivals::new(0.0).is_err());
        assert!(PoissonArrivals::new(-1.0).is_err());
    }
}
