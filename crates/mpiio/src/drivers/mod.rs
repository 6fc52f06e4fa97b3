//! ADIO drivers: one per concurrency-control strategy under comparison.

pub mod conflict;
pub mod locking;
pub mod versioning;

pub use conflict::ConflictDetectDriver;
pub use locking::LockingDriver;
pub use versioning::VersioningDriver;
