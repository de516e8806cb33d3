//! Small lattices used by the static protocol verifier.
//!
//! * [`ReqState`] — the wait-coverage lattice: the lifecycle of one
//!   posted receive request along a control-flow path. The verifier
//!   walks every path (branch arms joined, loop bodies closed) and
//!   requires each request to end [`ReqState::Done`] exactly once.

/// Lifecycle of one posted receive request on a control-flow path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqState {
    /// Never posted (or not yet on this path).
    NotPosted,
    /// Posted, not yet waited: the in-flight state.
    Pending,
    /// Posted and waited exactly once: the only legal final state.
    Done,
}

impl ReqState {
    /// Join two path states at a control-flow merge. Disagreement means
    /// some path waits and another does not — the caller reports it.
    pub fn join(self, other: ReqState) -> Result<ReqState, (ReqState, ReqState)> {
        if self == other {
            Ok(self)
        } else {
            Err((self, other))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_state_joins() {
        assert_eq!(ReqState::Done.join(ReqState::Done), Ok(ReqState::Done));
        assert!(ReqState::Pending.join(ReqState::Done).is_err());
        assert!(ReqState::NotPosted.join(ReqState::Pending).is_err());
    }
}
