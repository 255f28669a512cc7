//! Per-request cache decisions.

use std::fmt;

/// Chunk-level accounting of a served request.
///
/// `hit_chunks + filled_chunks` always equals the number of requested
/// chunks: a served request delivers every requested chunk, cache-filling
/// the missing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeOutcome {
    /// Requested chunks already present in the cache.
    pub hit_chunks: u64,
    /// Requested chunks fetched from upstream (ingress).
    pub filled_chunks: u64,
    /// Cached chunks this serve removed to make room for its fills: 0
    /// while the disk still has free space (warm-up). Which chunks they
    /// were stays inside the policy, which picks its own victims.
    pub evicted_chunks: u64,
}

impl ServeOutcome {
    /// Total requested chunks delivered by this serve.
    pub fn served_chunks(&self) -> u64 {
        self.hit_chunks + self.filled_chunks
    }
}

/// The decision a cache makes for one request (paper, Problem 1):
/// serve it (cache-filling any missing chunks) or redirect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Serve the full requested range from this server.
    Serve(ServeOutcome),
    /// Redirect the request (HTTP 302) to an alternative server.
    Redirect,
}

impl Decision {
    /// Whether the request was served locally.
    pub fn is_serve(&self) -> bool {
        matches!(self, Decision::Serve(_))
    }

    /// Whether the request was redirected.
    pub fn is_redirect(&self) -> bool {
        matches!(self, Decision::Redirect)
    }

    /// The serve outcome, if the request was served.
    pub fn serve_outcome(&self) -> Option<&ServeOutcome> {
        match self {
            Decision::Serve(o) => Some(o),
            Decision::Redirect => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Serve(o) => write!(
                f,
                "serve(hit={}, fill={}, evict={})",
                o.hit_chunks, o.filled_chunks, o.evicted_chunks
            ),
            Decision::Redirect => write!(f, "redirect"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_partition_decisions() {
        let serve = Decision::Serve(ServeOutcome {
            hit_chunks: 2,
            filled_chunks: 1,
            evicted_chunks: 1,
        });
        assert!(serve.is_serve() && !serve.is_redirect());
        assert!(Decision::Redirect.is_redirect() && !Decision::Redirect.is_serve());
    }

    #[test]
    fn serve_outcome_totals() {
        let o = ServeOutcome {
            hit_chunks: 3,
            filled_chunks: 4,
            evicted_chunks: 0,
        };
        assert_eq!(o.served_chunks(), 7);
    }

    #[test]
    fn serve_outcome_accessor() {
        let serve = Decision::Serve(ServeOutcome::default());
        assert!(serve.serve_outcome().is_some());
        assert!(Decision::Redirect.serve_outcome().is_none());
    }

    #[test]
    fn display_formats() {
        let serve = Decision::Serve(ServeOutcome {
            hit_chunks: 1,
            filled_chunks: 2,
            evicted_chunks: 1,
        });
        assert_eq!(serve.to_string(), "serve(hit=1, fill=2, evict=1)");
        assert_eq!(Decision::Redirect.to_string(), "redirect");
    }
}
