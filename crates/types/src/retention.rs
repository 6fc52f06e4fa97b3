//! Per-blob version retention policy: how much history the reclamation
//! subsystem must preserve regardless of leases.
//!
//! Retention is one of the three inputs to the GC floor — the collector
//! reclaims strictly below `min(retention floor, oldest live lease, WAL
//! base version)` — and is the only one an operator sets directly:
//! `StoreConfig::with_retention` for in-process deployments, `--retention
//! POLICY` on the version-capable server binaries.

use crate::ids::VersionId;
use serde::{DeError, Decode, Deserialize, Encode, Serialize, Value};
use std::fmt;

/// How many published snapshots of a blob must survive collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Encode, Decode)]
pub enum RetentionPolicy {
    /// Keep every published version — reclamation is disabled and the
    /// GC floor never rises. The default: versioning semantics are
    /// exactly those of the pre-GC store.
    #[default]
    KeepAll,
    /// Keep the newest `n` published versions (`n >= 1`; the latest
    /// snapshot is always retained).
    KeepLast(u64),
    /// Keep every version strictly above `v`: versions `<= v` are
    /// eligible for collection once no lease or WAL entry pins them.
    KeepAbove(VersionId),
}

impl RetentionPolicy {
    /// Parses the CLI spelling: `keep-all`, `keep-last:N`, or
    /// `keep-above:V`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "keep-all" {
            return Ok(RetentionPolicy::KeepAll);
        }
        if let Some(n) = s.strip_prefix("keep-last:") {
            return match n.parse::<u64>() {
                Ok(n) if n > 0 => Ok(RetentionPolicy::KeepLast(n)),
                _ => Err(format!("bad count in retention policy: {s}")),
            };
        }
        if let Some(v) = s.strip_prefix("keep-above:") {
            return match v.parse::<u64>() {
                Ok(v) => Ok(RetentionPolicy::KeepAbove(VersionId::new(v))),
                _ => Err(format!("bad version in retention policy: {s}")),
            };
        }
        Err(format!(
            "unknown retention policy {s} (expected keep-all, keep-last:N, or keep-above:V)"
        ))
    }

    /// The retention floor for a blob whose newest published version is
    /// `latest`: every version `>= floor` must survive collection, so a
    /// collector may reclaim strictly below it. `KeepAll` (and an empty
    /// blob) floor at version 1 — nothing is collectible.
    pub fn floor(&self, latest: VersionId) -> VersionId {
        let latest = latest.raw();
        let floor = match self {
            RetentionPolicy::KeepAll => 1,
            RetentionPolicy::KeepLast(n) => latest.saturating_sub(n.saturating_sub(1)).max(1),
            RetentionPolicy::KeepAbove(v) => (v.raw() + 1).min(latest).max(1),
        };
        VersionId::new(floor)
    }
}

impl fmt::Display for RetentionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetentionPolicy::KeepAll => write!(f, "keep-all"),
            RetentionPolicy::KeepLast(n) => write!(f, "keep-last:{n}"),
            RetentionPolicy::KeepAbove(v) => write!(f, "keep-above:{}", v.raw()),
        }
    }
}

// ---------------------------------------------------------------------
// Value tree (JSON, and the `Request` value impls the wall-clock benchmark
// probes): the tagged object the enum derive writes, but by hand — the
// tuple variants travel under key names the type does not spell (`"n"`,
// `"v"`). The wire uses the derived positional codec.
// ---------------------------------------------------------------------

impl Serialize for RetentionPolicy {
    fn to_value(&self) -> Value {
        let tagged = |tag: &str, fields: Vec<(String, Value)>| {
            let mut obj = vec![("t".to_string(), Value::Str(tag.to_string()))];
            obj.extend(fields);
            Value::Object(obj)
        };
        match self {
            RetentionPolicy::KeepAll => tagged("KeepAll", vec![]),
            RetentionPolicy::KeepLast(n) => tagged("KeepLast", vec![("n".into(), n.to_value())]),
            RetentionPolicy::KeepAbove(v) => tagged("KeepAbove", vec![("v".into(), v.to_value())]),
        }
    }
}

impl Deserialize for RetentionPolicy {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(match v.variant_tag("RetentionPolicy")? {
            "KeepAll" => RetentionPolicy::KeepAll,
            "KeepLast" => RetentionPolicy::KeepLast(u64::from_value(v.get_or_null("n"))?),
            "KeepAbove" => RetentionPolicy::KeepAbove(VersionId::from_value(v.get_or_null("v"))?),
            other => return Err(DeError::unknown_tag("RetentionPolicy", other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_display() {
        for policy in [
            RetentionPolicy::KeepAll,
            RetentionPolicy::KeepLast(3),
            RetentionPolicy::KeepAbove(VersionId::new(7)),
        ] {
            assert_eq!(RetentionPolicy::parse(&policy.to_string()), Ok(policy));
        }
        assert!(RetentionPolicy::parse("keep-last:0").is_err());
        assert!(RetentionPolicy::parse("keep-last:x").is_err());
        assert!(RetentionPolicy::parse("keep-above:").is_err());
        assert!(RetentionPolicy::parse("keep-some").is_err());
    }

    #[test]
    fn floor_pins_the_latest_snapshot() {
        let latest = VersionId::new(10);
        assert_eq!(RetentionPolicy::KeepAll.floor(latest), VersionId::new(1));
        assert_eq!(
            RetentionPolicy::KeepLast(1).floor(latest),
            VersionId::new(10)
        );
        assert_eq!(
            RetentionPolicy::KeepLast(4).floor(latest),
            VersionId::new(7)
        );
        // More retention than history: floor clamps at 1.
        assert_eq!(
            RetentionPolicy::KeepLast(99).floor(latest),
            VersionId::new(1)
        );
        assert_eq!(
            RetentionPolicy::KeepAbove(VersionId::new(6)).floor(latest),
            VersionId::new(7)
        );
        // KeepAbove never floats past latest: the newest snapshot stays.
        assert_eq!(
            RetentionPolicy::KeepAbove(VersionId::new(42)).floor(latest),
            VersionId::new(10)
        );
        // Empty blob (latest = 0): nothing to collect, floor is 1.
        assert_eq!(
            RetentionPolicy::KeepLast(2).floor(VersionId::new(0)),
            VersionId::new(1)
        );
    }

    #[test]
    fn wire_roundtrip() {
        for policy in [
            RetentionPolicy::KeepAll,
            RetentionPolicy::KeepLast(8),
            RetentionPolicy::KeepAbove(VersionId::new(3)),
        ] {
            assert_eq!(
                RetentionPolicy::from_value(&policy.to_value()).unwrap(),
                policy
            );
            let mut bytes = Vec::new();
            policy.encode(&mut bytes);
            assert_eq!(serde::decode_exact(&bytes), Ok(policy));
        }
    }
}
