//! Wall-clock watchdog: expires [`CancelToken`]s of attempts that outlive
//! their deadline.
//!
//! Simulations are cancelled *cooperatively* — the simulator checks its
//! token once per instruction — so a hung attempt is never killed at the
//! thread level. The watchdog is a single polling thread shared by all
//! workers: each attempt registers its token and deadline, and the guard
//! returned by [`Watchdog::guard`] deregisters on drop (normal completion)
//! before the deadline fires.

use ffsim_core::CancelToken;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Entry {
    id: u64,
    token: CancelToken,
    deadline: Option<Instant>,
    /// An additional cancellation source scoped to this attempt: the
    /// queue's per-job lease token. When it fires, the
    /// attempt's token is cancelled just like a campaign-wide stop.
    parent: Option<CancelToken>,
}

struct Shared {
    entries: Mutex<WatchState>,
    wake: Condvar,
}

struct WatchState {
    next_id: u64,
    entries: Vec<Entry>,
    shutdown: bool,
}

/// The watchdog thread plus its registry of supervised attempts.
pub struct Watchdog {
    shared: Arc<Shared>,
    campaign_token: CancelToken,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog").finish_non_exhaustive()
    }
}

/// RAII registration of one attempt with the watchdog; dropping it
/// deregisters the attempt.
pub struct WatchGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl std::fmt::Debug for WatchGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchGuard").field("id", &self.id).finish()
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut state = lock_ignoring_poison(&self.shared.entries);
        state.entries.retain(|e| e.id != self.id);
    }
}

impl Watchdog {
    const POLL: Duration = Duration::from_millis(2);

    /// Spawns the watchdog thread. `campaign_token` is the campaign-wide
    /// cancellation token: once it fires, the watchdog propagates
    /// cancellation to every registered attempt so in-flight simulations
    /// stop promptly.
    #[must_use]
    pub fn spawn(campaign_token: CancelToken) -> Watchdog {
        let shared = Arc::new(Shared {
            entries: Mutex::new(WatchState {
                next_id: 0,
                entries: Vec::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_campaign = campaign_token.clone();
        let thread = std::thread::Builder::new()
            .name("campaign-watchdog".into())
            .spawn(move || watch_loop(&thread_shared, &thread_campaign))
            .expect("spawning the watchdog thread cannot fail outside resource exhaustion");
        Watchdog {
            shared,
            campaign_token,
            thread: Some(thread),
        }
    }

    /// Registers an attempt: `token` is expired if `deadline` passes first,
    /// and cancelled if the campaign token fires. Drop the guard when the
    /// attempt finishes.
    #[must_use]
    pub fn guard(&self, token: &CancelToken, deadline: Option<Instant>) -> WatchGuard {
        self.guard_linked(token, deadline, None)
    }

    /// [`Watchdog::guard`] with an extra per-job `parent` token: when the
    /// parent fires (lease take-back), the attempt's
    /// token is cancelled just as promptly as for a campaign-wide stop.
    #[must_use]
    pub fn guard_linked(
        &self,
        token: &CancelToken,
        deadline: Option<Instant>,
        parent: Option<&CancelToken>,
    ) -> WatchGuard {
        // A campaign (or parent) cancelled before registration must still
        // reach this attempt's token: the poll loop only sees live entries.
        if self.campaign_token.is_cancelled() || parent.is_some_and(CancelToken::is_cancelled) {
            token.cancel();
        }
        let mut state = lock_ignoring_poison(&self.shared.entries);
        let id = state.next_id;
        state.next_id += 1;
        state.entries.push(Entry {
            id,
            token: token.clone(),
            deadline,
            parent: parent.cloned(),
        });
        self.shared.wake.notify_one();
        WatchGuard {
            shared: Arc::clone(&self.shared),
            id,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let mut state = lock_ignoring_poison(&self.shared.entries);
            state.shutdown = true;
        }
        self.shared.wake.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn watch_loop(shared: &Shared, campaign: &CancelToken) {
    let mut state = lock_ignoring_poison(&shared.entries);
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        let campaign_fired = campaign.is_cancelled();
        for entry in &state.entries {
            if campaign_fired || entry.parent.as_ref().is_some_and(CancelToken::is_cancelled) {
                entry.token.cancel();
            }
            if entry.deadline.is_some_and(|d| now >= d) {
                entry.token.expire();
            }
        }
        // Park until the next poll tick; guard registration wakes us early
        // so short deadlines are honored even after long idle stretches.
        let (next, _) = shared
            .wake
            .wait_timeout(state, Watchdog::POLL)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state = next;
    }
}

fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Worker panics are caught before they can poison driver state, but a
    // watchdog that stops supervising on poison would let hung jobs run
    // forever — keep going with the inner value.
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_core::CancelCause;

    #[test]
    fn expires_past_deadline() {
        let watchdog = Watchdog::spawn(CancelToken::new());
        let token = CancelToken::new();
        let _guard = watchdog.guard(&token, Some(Instant::now() + Duration::from_millis(10)));
        let start = Instant::now();
        while token.cause().is_none() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(token.cause(), Some(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn dropped_guard_is_not_expired() {
        let watchdog = Watchdog::spawn(CancelToken::new());
        let token = CancelToken::new();
        let guard = watchdog.guard(&token, Some(Instant::now() + Duration::from_millis(20)));
        drop(guard);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(token.cause(), None);
    }

    #[test]
    fn campaign_cancellation_reaches_registered_attempts() {
        let campaign = CancelToken::new();
        let watchdog = Watchdog::spawn(campaign.clone());
        let token = CancelToken::new();
        let _guard = watchdog.guard(&token, None);
        campaign.cancel();
        let start = Instant::now();
        while token.cause().is_none() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(token.cause(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn parent_token_cancellation_reaches_the_attempt() {
        let watchdog = Watchdog::spawn(CancelToken::new());
        let parent = CancelToken::new();
        let token = CancelToken::new();
        let _guard = watchdog.guard_linked(&token, None, Some(&parent));
        parent.cancel();
        let start = Instant::now();
        while token.cause().is_none() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(token.cause(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn pre_cancelled_parent_cancels_at_registration() {
        let watchdog = Watchdog::spawn(CancelToken::new());
        let parent = CancelToken::new();
        parent.cancel();
        let token = CancelToken::new();
        let _guard = watchdog.guard_linked(&token, None, Some(&parent));
        assert_eq!(token.cause(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn pre_cancelled_campaign_cancels_at_registration() {
        let campaign = CancelToken::new();
        campaign.cancel();
        let watchdog = Watchdog::spawn(campaign);
        let token = CancelToken::new();
        let _guard = watchdog.guard(&token, None);
        assert_eq!(token.cause(), Some(CancelCause::Cancelled));
    }
}
