//! Singleflight miss deduplication: concurrent cache misses on the same
//! `(fingerprint, store version, data epoch)` coordinates share one
//! optimization instead of paying for N.
//!
//! The first request to miss registers itself as the **leader** and
//! receives a [`MissGuard`]; it runs the full optimize+plan+execute
//! pipeline exactly once ([`crate::QueryService::complete_miss`]) and
//! publishes the answer both into the plan cache and into the flight,
//! where every **follower** that registered in the meantime picks it up.
//! Followers never park an OS thread unless they want to: a follower polls
//! its [`MissWaiter`] with a [`std::task::Waker`] (how the `sqo-frontend`
//! reactor multiplexes thousands of waiting logical clients over a fixed
//! worker pool), or calls [`MissWaiter::wait`] to block the calling thread
//! when it does own one.
//!
//! A leader that drops its guard without completing — a panic in the
//! optimizer, a cancelled task — **aborts** the flight: followers observe
//! [`FlightError::Aborted`] and re-register, one of them becoming the new
//! leader, so a poisoned leader never wedges the requests queued behind
//! it.
//!
//! The flight key deliberately includes the **data epoch**: the leader's
//! answer is a fully executed [`ServiceResponse`], and a result set is
//! only shareable with followers that arrived under the same data-epoch
//! coordinates (the plan itself is additionally published to the plan
//! cache under the store version, where it outlives the flight).

use std::collections::HashMap;
use std::sync::Arc;
use std::task::{Wake, Waker};

use parking_lot::Mutex;
use sqo_constraints::{ConstraintStore, StoreVersion};
use sqo_query::{Query, QueryFingerprint};

use crate::service::{ServiceError, ServiceResponse};

/// Identity of one in-flight miss: the full validity coordinates of the
/// answer the leader will publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlightKey {
    /// Canonical fingerprint of the missed query.
    pub fingerprint: QueryFingerprint,
    /// Constraint-store version the flight's rewrite is derived under.
    pub version: StoreVersion,
    /// Data epoch observed at registration (results computed by the
    /// leader are shared at-or-after this epoch).
    pub data_epoch: u64,
}

/// Why a follower's flight resolved without an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightError {
    /// The leader ran the pipeline and it failed; the error is shared
    /// verbatim with every follower (re-running would fail identically).
    Failed(ServiceError),
    /// The leader dropped its [`MissGuard`] without completing (panic or
    /// cancellation). The follower should re-register — the next
    /// registrant becomes the new leader.
    Aborted,
}

/// What a follower receives when its flight resolves.
pub type FlightResult = Result<ServiceResponse, FlightError>;

#[derive(Debug)]
struct FlightState {
    outcome: Option<FlightResult>,
    wakers: Vec<Waker>,
}

/// One in-flight miss: the leader publishes here, followers wait here.
#[derive(Debug)]
pub(crate) struct Flight {
    /// The canonical query, kept to disarm 64-bit fingerprint collisions
    /// exactly like the plan cache does.
    canonical: Query,
    state: Mutex<FlightState>,
}

impl Flight {
    fn new(canonical: Query) -> Self {
        Self { canonical, state: Mutex::new(FlightState { outcome: None, wakers: Vec::new() }) }
    }

    /// Publishes the outcome and wakes every registered waiter. Idempotent
    /// (the first resolution wins).
    fn resolve(&self, outcome: FlightResult) {
        let wakers = {
            let mut state = self.state.lock();
            if state.outcome.is_some() {
                return;
            }
            state.outcome = Some(outcome);
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker.wake();
        }
    }

    /// The resolved outcome, or `None` with `waker` registered for the
    /// resolution. Checking the outcome and registering the waker happen
    /// under one lock, so a resolution can never slip between them.
    fn poll(&self, waker: &Waker) -> Option<FlightResult> {
        let mut state = self.state.lock();
        if let Some(outcome) = &state.outcome {
            return Some(outcome.clone());
        }
        if !state.wakers.iter().any(|w| w.will_wake(waker)) {
            state.wakers.push(waker.clone());
        }
        None
    }
}

/// How a [`FlightTable::register`] call landed.
#[derive(Debug)]
pub(crate) enum Registered {
    /// First registrant on these coordinates: run the miss pipeline.
    Leader(Arc<Flight>),
    /// A leader is already in flight: wait for its answer.
    Follower(Arc<Flight>),
    /// Same fingerprint, different canonical query (a 2⁻⁶⁴ hash
    /// collision): do not share; run the undeduplicated path.
    Collision,
}

/// The in-flight miss registry, shared by the plan cache and every
/// [`MissGuard`]/[`MissWaiter`] handed out from it.
#[derive(Debug, Default)]
pub(crate) struct FlightTable {
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
}

impl FlightTable {
    /// Registers interest in `key`: the first caller becomes the leader,
    /// everyone after it (until the flight resolves) a follower.
    pub(crate) fn register(&self, key: FlightKey, canonical: &Query) -> Registered {
        let mut flights = self.flights.lock();
        match flights.get(&key) {
            Some(flight) if flight.canonical == *canonical => {
                Registered::Follower(Arc::clone(flight))
            }
            Some(_) => Registered::Collision,
            None => {
                let flight = Arc::new(Flight::new(canonical.clone()));
                flights.insert(key, Arc::clone(&flight));
                Registered::Leader(flight)
            }
        }
    }

    /// Removes `flight` from the table (only if it is still the one
    /// registered — a successor flight on the same key is left alone) and
    /// resolves it. New registrants on the key start a fresh flight.
    fn retire(&self, key: FlightKey, flight: &Arc<Flight>, outcome: FlightResult) {
        {
            let mut flights = self.flights.lock();
            if flights.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                flights.remove(&key);
            }
        }
        flight.resolve(outcome);
    }

    /// Number of flights currently in the table (diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.flights.lock().len()
    }
}

/// The leader's obligation: a registered miss whose optimization this
/// request must run (via [`crate::QueryService::complete_miss`]).
///
/// Dropping the guard without completing aborts the flight — followers
/// are woken with [`FlightError::Aborted`] and re-register, so a leader
/// that panics mid-optimization never strands them.
#[derive(Debug)]
pub struct MissGuard {
    key: FlightKey,
    canonical: Query,
    /// The store captured at registration: the leader derives under
    /// exactly the version its flight (and cache stamp) names, even if
    /// the service's store is swapped mid-flight.
    store: Arc<ConstraintStore>,
    table: Arc<FlightTable>,
    flight: Arc<Flight>,
    completed: bool,
}

impl MissGuard {
    pub(crate) fn new(
        key: FlightKey,
        canonical: Query,
        store: Arc<ConstraintStore>,
        table: Arc<FlightTable>,
        flight: Arc<Flight>,
    ) -> Self {
        Self { key, canonical, store, table, flight, completed: false }
    }

    /// The flight's coordinates.
    pub fn key(&self) -> FlightKey {
        self.key
    }

    /// Moves out the canonical query the leader must optimize, leaving an
    /// empty query behind (the flight keeps its own copy for collision
    /// checks).
    pub(crate) fn take_canonical(&mut self) -> Query {
        std::mem::replace(&mut self.canonical, Query::new())
    }

    pub(crate) fn store(&self) -> &Arc<ConstraintStore> {
        &self.store
    }

    /// Retires the flight with `outcome`, waking every follower.
    pub(crate) fn finish(mut self, outcome: FlightResult) {
        self.completed = true;
        self.table.retire(self.key, &self.flight, outcome);
    }
}

impl Drop for MissGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.table.retire(self.key, &self.flight, Err(FlightError::Aborted));
        }
    }
}

/// A follower's handle on an in-flight miss.
#[derive(Debug)]
pub struct MissWaiter {
    flight: Arc<Flight>,
}

impl MissWaiter {
    pub(crate) fn new(flight: Arc<Flight>) -> Self {
        Self { flight }
    }

    /// Non-blocking: the outcome if the flight has resolved, otherwise
    /// `None` with `waker` registered to fire on resolution. This is the
    /// reactor integration point — a waiting task costs no thread.
    pub fn poll(&self, waker: &Waker) -> Option<FlightResult> {
        self.flight.poll(waker)
    }

    /// Blocks the calling thread (park/unpark, no spin) until the flight
    /// resolves — the synchronous counterpart of [`MissWaiter::poll`].
    pub fn wait(&self) -> FlightResult {
        struct Unpark(std::thread::Thread);
        impl Wake for Unpark {
            fn wake(self: Arc<Self>) {
                self.0.unpark();
            }
        }
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        loop {
            if let Some(outcome) = self.flight.poll(&waker) {
                return outcome;
            }
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_exec::ResultSet;

    fn key(fp: u64) -> FlightKey {
        FlightKey {
            fingerprint: QueryFingerprint(fp),
            version: StoreVersion { generation: 1, epoch: 0 },
            data_epoch: 0,
        }
    }

    fn response() -> ServiceResponse {
        ServiceResponse {
            results: Arc::new(ResultSet::new(vec![])),
            cache_hit: false,
            epoch: 0,
            data_epoch: 0,
        }
    }

    #[test]
    fn first_registrant_leads_rest_follow() {
        let table = Arc::new(FlightTable::default());
        let q = Query::new();
        let Registered::Leader(flight) = table.register(key(1), &q) else {
            panic!("first registrant must lead")
        };
        assert!(matches!(table.register(key(1), &q), Registered::Follower(_)));
        assert!(matches!(table.register(key(2), &q), Registered::Leader(_)));
        assert_eq!(table.len(), 2);
        table.retire(key(1), &flight, Ok(response()));
        assert_eq!(table.len(), 1);
        // After retirement the key is free again: a new leader, not a
        // follower of the resolved flight.
        assert!(matches!(table.register(key(1), &q), Registered::Leader(_)));
    }

    #[test]
    fn fingerprint_collisions_do_not_share() {
        let table = FlightTable::default();
        let q = Query::new();
        let mut other = Query::new();
        other.classes.push(sqo_catalog::ClassId(0));
        let _leader = table.register(key(7), &q);
        assert!(matches!(table.register(key(7), &other), Registered::Collision));
    }

    #[test]
    fn followers_wake_on_resolution_and_dropped_guards_abort() {
        let table = Arc::new(FlightTable::default());
        let q = Query::new();
        let Registered::Leader(flight) = table.register(key(1), &q) else { panic!() };
        let Registered::Follower(joined) = table.register(key(1), &q) else { panic!() };
        let waiter = MissWaiter::new(joined);
        let resolver = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.retire(key(1), &flight, Ok(response())))
        };
        assert!(waiter.wait().is_ok());
        resolver.join().unwrap();

        // A guard dropped without completion aborts its flight.
        let Registered::Leader(flight) = table.register(key(3), &q) else { panic!() };
        let Registered::Follower(joined) = table.register(key(3), &q) else { panic!() };
        let guard =
            MissGuard::new(key(3), q.clone(), Arc::new(test_store()), Arc::clone(&table), flight);
        drop(guard);
        assert!(matches!(MissWaiter::new(joined).wait(), Err(FlightError::Aborted)));
        assert_eq!(table.len(), 0, "aborted flights leave the table");
    }

    fn test_store() -> ConstraintStore {
        let catalog = Arc::new(sqo_catalog::example::figure21().unwrap());
        ConstraintStore::build(
            Arc::clone(&catalog),
            vec![],
            sqo_constraints::StoreOptions::paper_defaults(),
        )
        .unwrap()
    }
}
