//! Typed service errors.
//!
//! [`ServiceError`] extends the pipeline's [`KgLinkError`] family with the
//! failure modes a *service* adds on top of annotation itself: admission
//! rejection under overload, load-shedding, and shutdown. Pipeline errors
//! pass through in the [`Pipeline`](ServiceError::Pipeline) variant.

use kglink_core::KgLinkError;
use std::fmt;

/// Everything a service request can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded queue was full and the admission policy is
    /// [`Reject`](crate::queue::AdmissionPolicy::Reject): the request was
    /// turned away at the door instead of blocking the caller.
    Overloaded { queue_depth: usize, capacity: usize },
    /// The request was admitted but evicted from the queue when overload
    /// control cut the admission limit below the queue depth.
    Shed,
    /// The service shut down before the request was processed.
    Closed,
    /// Annotating this request panicked. The panic was caught on the
    /// worker, which delivered this error and serves on.
    WorkerPanicked,
    /// The underlying annotation pipeline failed.
    Pipeline(KgLinkError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "service overloaded: queue at {queue_depth}/{capacity}, request rejected"
            ),
            ServiceError::Shed => write!(f, "request shed when the admission limit fell"),
            ServiceError::Closed => write!(f, "service closed before the request completed"),
            ServiceError::WorkerPanicked => {
                write!(f, "the worker serving this request panicked")
            }
            ServiceError::Pipeline(e) => write!(f, "annotation failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<KgLinkError> for ServiceError {
    fn from(e: KgLinkError) -> Self {
        ServiceError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kglink_table::TableId;

    #[test]
    fn errors_format_their_context() {
        let e = ServiceError::Overloaded {
            queue_depth: 64,
            capacity: 64,
        };
        assert!(e.to_string().contains("64/64"));
        assert!(ServiceError::Shed.to_string().contains("shed"));
        assert!(ServiceError::Closed.to_string().contains("closed"));
        let e: ServiceError = KgLinkError::degenerate(TableId(3), "no columns").into();
        assert!(matches!(e, ServiceError::Pipeline(_)));
        assert!(e.to_string().contains("no columns"));
    }
}
