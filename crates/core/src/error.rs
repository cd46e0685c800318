//! Error type for partitioning and serving.

use std::fmt;

use gillis_faas::FaasError;
use gillis_model::ModelError;
use gillis_perf::PerfError;

/// Error returned by partitioning algorithms and the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// No feasible plan exists: some layer cannot fit any function under the
    /// memory budget with any partitioning option.
    Infeasible(String),
    /// A plan failed validation (gaps, overlaps, or memory violations).
    InvalidPlan(String),
    /// A single-function deployment exceeds the memory budget — the paper's
    /// motivating OOM condition.
    OutOfMemory {
        /// Required bytes.
        required: u64,
        /// Budget in bytes.
        budget: u64,
    },
    /// An argument was structurally invalid.
    InvalidArgument(String),
    /// A worker partition exhausted its retry budget and graceful
    /// degradation (master-local recompute) was disabled.
    WorkerFailed {
        /// Plan group index.
        group: usize,
        /// Partition index within the group.
        part: usize,
        /// Attempts consumed before giving up.
        attempts: u32,
        /// What the last failure looked like.
        reason: String,
    },
    /// A worker panicked and the panic payload was not an injected fault —
    /// a genuine executor bug surfaced at the join.
    WorkerPanic {
        /// Plan group index.
        group: usize,
        /// Partition index within the group.
        part: usize,
        /// The panic message, if it was a string.
        message: String,
    },
    /// Error from the model layer.
    Model(ModelError),
    /// Error from the platform simulator.
    Faas(FaasError),
    /// Error from the performance model.
    Perf(PerfError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Infeasible(msg) => write!(f, "no feasible plan: {msg}"),
            CoreError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            CoreError::OutOfMemory { required, budget } => write!(
                f,
                "out of memory: {required} bytes required, {budget} bytes available"
            ),
            CoreError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            CoreError::WorkerFailed {
                group,
                part,
                attempts,
                reason,
            } => write!(
                f,
                "worker for group {group} part {part} failed after {attempts} attempts: {reason}"
            ),
            CoreError::WorkerPanic {
                group,
                part,
                message,
            } => write!(
                f,
                "worker for group {group} part {part} panicked: {message}"
            ),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Faas(e) => write!(f, "platform error: {e}"),
            CoreError::Perf(e) => write!(f, "performance model error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Faas(e) => Some(e),
            CoreError::Perf(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[doc(hidden)]
impl From<FaasError> for CoreError {
    fn from(e: FaasError) -> Self {
        CoreError::Faas(e)
    }
}

#[doc(hidden)]
impl From<PerfError> for CoreError {
    fn from(e: PerfError) -> Self {
        CoreError::Perf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: CoreError = ModelError::UnknownNode(3).into();
        assert!(e.to_string().contains("model error"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = FaasError::NoSuchFunction("f".into()).into();
        assert!(e.to_string().contains("platform error"));
        let e: CoreError = PerfError::SingularSystem.into();
        assert!(e.to_string().contains("performance model"));
        let e = CoreError::OutOfMemory {
            required: 10,
            budget: 5,
        };
        assert!(e.to_string().contains("out of memory"));
        assert!(std::error::Error::source(&e).is_none());
        let e = CoreError::WorkerFailed {
            group: 2,
            part: 1,
            attempts: 4,
            reason: "injected crash".into(),
        };
        assert!(e.to_string().contains("failed after 4 attempts"));
        let e = CoreError::WorkerPanic {
            group: 0,
            part: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("panicked: boom"));
    }
}
