//! Function registry and warm pools.
//!
//! Serverless instances stay warm between invocations and are reclaimed
//! after an idle timeout; a request that finds no warm instance pays a cold
//! start (container provisioning plus package load). The paper warms
//! functions up before measuring (§III-A), and its §V-C experiments run
//! thousands of queries against steady warm pools — both behaviours fall out
//! of this model.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::FaasError;
use crate::platform::PlatformProfile;
use crate::time::Micros;
use crate::Result;

/// A deployable function: name, configured memory, and deployment package
/// size (model weights dominate for serving functions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Unique function name.
    pub name: String,
    /// Configured instance memory in bytes.
    pub memory_bytes: u64,
    /// Deployment package size in bytes (loaded on cold start).
    pub package_bytes: u64,
}

/// Outcome of acquiring an instance for an invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    /// Whether this start was cold.
    pub cold: bool,
    /// When the instance is ready to run the handler.
    pub ready_at: Micros,
}

#[derive(Debug, Clone, Default)]
struct FunctionPool {
    spec_memory: u64,
    package_bytes: u64,
    /// Times at which warm instances become (or became) free.
    free_at: Vec<Micros>,
    cold_starts: u64,
    warm_starts: u64,
    peak_instances: usize,
    busy: usize,
}

/// The per-platform function registry with warm-pool simulation.
#[derive(Debug, Clone)]
pub struct Fleet {
    profile: PlatformProfile,
    pools: HashMap<String, FunctionPool>,
}

impl Fleet {
    /// Creates an empty fleet on a platform.
    pub fn new(profile: PlatformProfile) -> Self {
        Fleet {
            profile,
            pools: HashMap::new(),
        }
    }

    /// The platform this fleet runs on.
    pub fn profile(&self) -> &PlatformProfile {
        &self.profile
    }

    /// Deploys a function.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::OutOfMemory`] if the requested memory exceeds the
    /// platform's instance limit, and [`FaasError::InvalidArgument`] on
    /// duplicate names.
    pub fn deploy(&mut self, spec: FunctionSpec) -> Result<()> {
        if spec.memory_bytes > self.profile.instance_memory_bytes {
            return Err(FaasError::OutOfMemory {
                requested: spec.memory_bytes,
                limit: self.profile.instance_memory_bytes,
            });
        }
        if self.pools.contains_key(&spec.name) {
            return Err(FaasError::InvalidArgument(format!(
                "function {} already deployed",
                spec.name
            )));
        }
        self.pools.insert(
            spec.name.clone(),
            FunctionPool {
                spec_memory: spec.memory_bytes,
                package_bytes: spec.package_bytes,
                ..FunctionPool::default()
            },
        );
        Ok(())
    }

    /// Acquires an instance of `name` at virtual time `now`: reuses a warm
    /// instance if one is free, otherwise pays a cold start (provisioning
    /// plus package load from the object store).
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::NoSuchFunction`] for unknown names.
    pub fn acquire(&mut self, name: &str, now: Micros) -> Result<Acquisition> {
        let idle_timeout = self.profile.warm_idle_timeout;
        let cold_ms =
            self.profile.cold_start_ms + self.profile.storage_read_ms(self.package_bytes(name)?);
        let pool = self
            .pools
            .get_mut(name)
            .ok_or_else(|| FaasError::NoSuchFunction(name.to_string()))?;

        // Reclaim instances idle past the timeout.
        pool.free_at.retain(|&f| f + idle_timeout >= now);

        // Prefer the most recently freed warm instance that is actually free.
        let mut best: Option<usize> = None;
        for (i, &f) in pool.free_at.iter().enumerate() {
            if f <= now && best.map(|b| pool.free_at[b] < f).unwrap_or(true) {
                best = Some(i);
            }
        }
        let acq = match best {
            Some(i) => {
                pool.free_at.swap_remove(i);
                pool.warm_starts += 1;
                Acquisition {
                    cold: false,
                    ready_at: now,
                }
            }
            None => {
                pool.cold_starts += 1;
                Acquisition {
                    cold: true,
                    ready_at: now + Micros::from_ms(cold_ms),
                }
            }
        };
        pool.busy += 1;
        pool.peak_instances = pool.peak_instances.max(pool.busy + pool.free_at.len());
        Ok(acq)
    }

    /// Releases an instance of `name` back to the warm pool at time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::NoSuchFunction`] for unknown names.
    pub fn release(&mut self, name: &str, at: Micros) -> Result<()> {
        let pool = self
            .pools
            .get_mut(name)
            .ok_or_else(|| FaasError::NoSuchFunction(name.to_string()))?;
        pool.busy = pool.busy.saturating_sub(1);
        pool.free_at.push(at);
        Ok(())
    }

    /// Pre-warms `count` instances of `name`, as Gillis's periodic pings do
    /// (§III-A): they become free immediately at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::NoSuchFunction`] for unknown names.
    pub fn prewarm(&mut self, name: &str, count: usize, now: Micros) -> Result<()> {
        let pool = self
            .pools
            .get_mut(name)
            .ok_or_else(|| FaasError::NoSuchFunction(name.to_string()))?;
        for _ in 0..count {
            pool.free_at.push(now);
        }
        pool.peak_instances = pool.peak_instances.max(pool.busy + pool.free_at.len());
        Ok(())
    }

    /// Configured memory of a function.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::NoSuchFunction`] for unknown names.
    pub fn memory_bytes(&self, name: &str) -> Result<u64> {
        Ok(self
            .pools
            .get(name)
            .ok_or_else(|| FaasError::NoSuchFunction(name.to_string()))?
            .spec_memory)
    }

    /// Package size of a function.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::NoSuchFunction`] for unknown names.
    pub fn package_bytes(&self, name: &str) -> Result<u64> {
        Ok(self
            .pools
            .get(name)
            .ok_or_else(|| FaasError::NoSuchFunction(name.to_string()))?
            .package_bytes)
    }

    /// `(cold_starts, warm_starts, peak_instances)` counters of a function.
    ///
    /// # Errors
    ///
    /// Returns [`FaasError::NoSuchFunction`] for unknown names.
    pub fn stats(&self, name: &str) -> Result<(u64, u64, usize)> {
        let p = self
            .pools
            .get(name)
            .ok_or_else(|| FaasError::NoSuchFunction(name.to_string()))?;
        Ok((p.cold_starts, p.warm_starts, p.peak_instances))
    }

    /// Cold starts summed over every deployed function.
    pub fn cold_starts(&self) -> u64 {
        self.pools.values().map(|p| p.cold_starts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Fleet {
        let mut f = Fleet::new(PlatformProfile::aws_lambda());
        f.deploy(FunctionSpec {
            name: "worker".into(),
            memory_bytes: 3_000_000_000,
            package_bytes: 100_000_000,
        })
        .unwrap();
        f
    }

    #[test]
    fn deploy_rejects_oversized_and_duplicate() {
        let mut f = Fleet::new(PlatformProfile::aws_lambda());
        assert!(matches!(
            f.deploy(FunctionSpec {
                name: "big".into(),
                memory_bytes: 5_000_000_000,
                package_bytes: 0,
            }),
            Err(FaasError::OutOfMemory { .. })
        ));
        f.deploy(FunctionSpec {
            name: "ok".into(),
            memory_bytes: 1_000_000_000,
            package_bytes: 0,
        })
        .unwrap();
        assert!(f
            .deploy(FunctionSpec {
                name: "ok".into(),
                memory_bytes: 1_000_000_000,
                package_bytes: 0,
            })
            .is_err());
    }

    #[test]
    fn first_start_is_cold_then_warm() {
        let mut f = fleet();
        let a = f.acquire("worker", Micros::ZERO).unwrap();
        assert!(a.cold);
        assert!(a.ready_at > Micros::ZERO);
        f.release("worker", Micros::from_ms(500.0)).unwrap();
        let b = f.acquire("worker", Micros::from_ms(600.0)).unwrap();
        assert!(!b.cold);
        assert_eq!(b.ready_at, Micros::from_ms(600.0));
        let (cold, warm, peak) = f.stats("worker").unwrap();
        assert_eq!((cold, warm), (1, 1));
        assert_eq!(peak, 1);
    }

    #[test]
    fn concurrent_requests_scale_out() {
        let mut f = fleet();
        let a = f.acquire("worker", Micros::ZERO).unwrap();
        let b = f.acquire("worker", Micros::ZERO).unwrap();
        assert!(a.cold && b.cold);
        let (cold, _, peak) = f.stats("worker").unwrap();
        assert_eq!(cold, 2);
        assert_eq!(peak, 2);
    }

    #[test]
    fn busy_instance_is_not_reused() {
        let mut f = fleet();
        let _ = f.acquire("worker", Micros::ZERO).unwrap();
        f.release("worker", Micros::from_ms(100.0)).unwrap();
        // At t=50 the instance is still busy (frees at 100) -> cold start.
        let b = f.acquire("worker", Micros::from_ms(50.0)).unwrap();
        assert!(b.cold);
    }

    #[test]
    fn idle_instances_expire() {
        let mut f = fleet();
        let _ = f.acquire("worker", Micros::ZERO).unwrap();
        f.release("worker", Micros::from_ms(10.0)).unwrap();
        // Just under the 600 s timeout: still warm.
        let t_warm = Micros::from_secs(599);
        let a = f.acquire("worker", t_warm).unwrap();
        assert!(!a.cold);
        f.release("worker", t_warm).unwrap();
        // Far past the timeout: reclaimed.
        let b = f.acquire("worker", Micros::from_secs(1500)).unwrap();
        assert!(b.cold);
    }

    #[test]
    fn prewarm_avoids_cold_start() {
        let mut f = fleet();
        f.prewarm("worker", 4, Micros::ZERO).unwrap();
        for _ in 0..4 {
            assert!(!f.acquire("worker", Micros::from_ms(1.0)).unwrap().cold);
        }
        assert!(f.acquire("worker", Micros::from_ms(1.0)).unwrap().cold);
    }

    #[test]
    fn cold_start_cost_includes_package_load() {
        let mut f = fleet();
        let a = f.acquire("worker", Micros::ZERO).unwrap();
        // 250 ms provisioning + 30 ms storage latency + 100 MB at 120 MB/s.
        let expected = 250.0 + 30.0 + 100_000_000.0 * 8.0 / 960e6 * 1000.0;
        assert!((a.ready_at.as_ms() - expected).abs() < 1.0);
    }

    #[test]
    fn unknown_function_errors() {
        let mut f = fleet();
        assert!(f.acquire("nope", Micros::ZERO).is_err());
        assert!(f.release("nope", Micros::ZERO).is_err());
        assert!(f.stats("nope").is_err());
        assert!(f.prewarm("nope", 1, Micros::ZERO).is_err());
    }
}
