//! Deduplicated process-level warnings.
//!
//! Configuration knobs are parsed once per process; a typo in one would
//! otherwise be silently treated as a default. [`warn_once`] gives such
//! parse sites a single place to complain: the first call for a topic
//! prints one line to stderr and records it, repeats are no-ops, and
//! tests can inspect what fired via [`warnings`].
//!
//! Warnings are diagnostics, not measurements: they fire even when the
//! observability [`Mode`](crate::Mode) is `Off`, and [`reset`](crate::reset)
//! does not clear them (the knob sites that use them only parse once per
//! process anyway).

use std::sync::Mutex;

static WARNINGS: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Record and print a warning once per `topic`.
///
/// The first call for a given topic writes `warning: <message>` to stderr
/// and returns `true`; later calls with the same topic (whatever their
/// message) are silent and return `false`.
pub fn warn_once(topic: &str, message: &str) -> bool {
    let mut log = WARNINGS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if log.iter().any(|(t, _)| t == topic) {
        return false;
    }
    eprintln!("warning: {message}");
    log.push((topic.to_owned(), message.to_owned()));
    true
}

/// Snapshot of every `(topic, message)` recorded so far, in firing order.
#[must_use]
pub fn warnings() -> Vec<(String, String)> {
    WARNINGS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_once_dedups_by_topic() {
        assert!(warn_once("test-topic", "first"));
        assert!(!warn_once("test-topic", "second"));
        let all = warnings();
        let mine: Vec<_> = all.iter().filter(|(t, _)| t == "test-topic").collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].1, "first");
    }

    #[test]
    fn distinct_topics_both_fire() {
        assert!(warn_once("test-topic-a", "a"));
        assert!(warn_once("test-topic-b", "b"));
    }
}
