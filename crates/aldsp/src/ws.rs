//! The web-service source simulator.
//!
//! ALDSP introspects a WSDL and produces a library data service with
//! one method per operation (§II.A). Here a [`WebService`] carries
//! WSDL-like operation metadata (name, input/output element names) and
//! an in-process implementation closure — enough to exercise the same
//! introspection → library-data-service → XQuery-call path as the
//! paper's document-style credit-rating service.

// A service hands out the trees its response cache holds: its failures
// surface as XQSE-catchable errors, never as panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use xdm::error::{ErrorCode, XdmError, XdmResult};
use xdm::node::NodeHandle;
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};
use xqeval::Lru;

use crate::errors::AldspCode;
use crate::fault::Op;
use crate::resilience::Access;

/// Default bound on the per-service response cache. Must comfortably
/// exceed the benchmark's largest working set (5 000 distinct
/// customers in E1) or the read-through path would thrash.
const RESPONSE_CACHE_CAPACITY: usize = 8_192;

/// An operation implementation: request sequence in, response
/// sequence out.
pub type WsHandler = Rc<dyn Fn(&Sequence) -> XdmResult<Sequence>>;

/// A cached response: the write epoch and the thread's sealed-write
/// count it was stored under, and its sealed trees.
type Stamped = (u64, u64, Sequence);

/// WSDL-like metadata plus implementation for one operation.
#[derive(Clone)]
pub struct WsOperation {
    /// Operation name (becomes the library-function name).
    pub name: String,
    /// Input element local name (from the "WSDL types").
    pub input_element: String,
    /// Output element local name.
    pub output_element: String,
    /// The implementation.
    pub handler: WsHandler,
}

/// A web-service source: a named set of operations.
///
/// Calls are routed through the service's [`Access`] handle (fault
/// injection + retry/timeout/circuit breaker). Responses of
/// successful calls are remembered per request, so when the service
/// is unavailable a read may be served from that marked-stale cache
/// (graceful degradation; the credit-rating use case tolerates a
/// slightly old score better than a failed profile read).
#[derive(Clone)]
pub struct WebService {
    /// Service name (e.g. `CreditRating`).
    pub name: String,
    /// The service's namespace (used for request/response elements).
    pub namespace: String,
    operations: HashMap<String, WsOperation>,
    order: Vec<String>,
    access: Rc<RefCell<Access>>,
    /// Bounded (LRU) response store keyed by request fingerprint,
    /// each entry stamped with the [`WebService::write_epoch`] and the
    /// thread's sealed-write count ([`xdm::sealed_writes`]) it was
    /// inserted under. Serves two roles: the stale-read fallback when
    /// the service is down (any epoch — staleness is explicit and
    /// counted there), and the read-through cache for repeated
    /// identical requests when the engine's batch layer is on
    /// (current epoch only — see [`WebService::cached`]). Entries are
    /// the very nodes [`WebService::call`] returned, so an in-place
    /// write may have edited one: neither role serves an entry whose
    /// sealed-write count moved.
    response_cache: Rc<RefCell<Lru<String, Stamped>>>,
    /// Moves whenever a statement may have written a source: handlers
    /// are arbitrary closures, so a procedure call or submission may
    /// change what the service would answer, and the *fresh* read path
    /// must not keep serving pre-write responses. A registered service
    /// reads its engine's source-write count
    /// ([`xqeval::Engine::source_writes`], bound by
    /// [`crate::service::DataSpace::register_web_service`]); a
    /// service on its own keeps a private one.
    pub(crate) write_epoch: Rc<Cell<u64>>,
}

impl WebService {
    /// An empty service.
    pub fn new(name: &str, namespace: &str) -> WebService {
        WebService {
            name: name.to_string(),
            namespace: namespace.to_string(),
            operations: HashMap::new(),
            order: Vec::new(),
            access: Rc::new(RefCell::new(Access::none())),
            response_cache: Rc::new(RefCell::new(Lru::new(RESPONSE_CACHE_CAPACITY))),
            write_epoch: Rc::new(Cell::new(0)),
        }
    }

    /// Rebound the response cache; evictions this forces are counted
    /// against the source's resilience stats like any other.
    pub fn set_response_cache_capacity(&self, cap: usize) {
        let evicted = self.response_cache.borrow_mut().set_capacity(cap);
        for _ in 0..evicted {
            self.note_eviction();
        }
    }

    /// Number of responses currently cached.
    pub fn response_cache_len(&self) -> usize {
        self.response_cache.borrow().len()
    }

    /// Insert a response stamped with the current write epoch and
    /// sealed-write count, counting any forced LRU eviction in
    /// [`crate::ResilienceStats::cache_evictions`].
    fn cache_insert(&self, key: String, resp: Sequence) {
        // The cached trees are served by reference to many
        // evaluations: seal them so the zero-copy constructor path can
        // graft them instead of deep-copying. Mutation through a graft
        // copies on write; a write to a returned response itself edits
        // this copy, moves the sealed-write count, and so retires it.
        for item in resp.iter() {
            if let Item::Node(n) = item {
                n.seal();
            }
        }
        let entry = (self.write_epoch.get(), xdm::sealed_writes(), resp);
        if self.response_cache.borrow_mut().insert(key, entry).is_some() {
            self.note_eviction();
        }
    }

    fn note_eviction(&self) {
        if let Some(res) = &self.access.borrow().resilience {
            res.lock().note_cache_eviction();
        }
    }

    /// A cached response for this exact (operation, request) pair, if
    /// one is still resident *and* no source write has happened since
    /// it was stored — the batch layer's normal-path read-through must
    /// never serve a pre-write response as if it were fresh (entries
    /// from older epochs remain available to the explicit, counted
    /// stale-read degradation path only) — *and* no sealed arena was
    /// written in place since. Refreshes the entry's LRU recency on a
    /// hit: the read-through path is the reason an entry is worth
    /// keeping.
    pub fn cached(&self, name: &str, request: &Sequence) -> Option<Sequence> {
        let key = request_fingerprint(name, request);
        let epoch = self.write_epoch.get();
        match self.response_cache.borrow_mut().get(&key) {
            Some((e, w, resp)) if *e == epoch && *w == xdm::sealed_writes() => {
                Some(resp.clone())
            }
            _ => None,
        }
    }

    /// Install (or replace) the fault-injection / resilience handle
    /// for this source. Shared across clones.
    pub fn set_access(&self, access: Access) {
        *self.access.borrow_mut() = access;
    }

    /// A snapshot of this source's access handle.
    pub fn access(&self) -> Access {
        self.access.borrow().clone()
    }

    /// Register an operation.
    pub fn add_operation(
        &mut self,
        name: &str,
        input_element: &str,
        output_element: &str,
        handler: WsHandler,
    ) {
        self.order.push(name.to_string());
        self.operations.insert(
            name.to_string(),
            WsOperation {
                name: name.to_string(),
                input_element: input_element.to_string(),
                output_element: output_element.to_string(),
                handler,
            },
        );
    }

    /// Operation names in registration order (the "WSDL port type").
    pub fn operation_names(&self) -> Vec<String> {
        self.order.clone()
    }

    /// Look up an operation.
    pub fn operation(&self, name: &str) -> Option<&WsOperation> {
        self.operations.get(name)
    }

    /// Invoke an operation.
    ///
    /// Routed through the [`Access`] handle as a degradable read: when
    /// the service is unavailable (injected outage or open breaker), a
    /// previously cached response for the *same request* is served
    /// instead and counted in
    /// [`crate::ResilienceStats::stale_reads`].
    pub fn call(&self, name: &str, request: &Sequence) -> XdmResult<Sequence> {
        let op = self.operations.get(name).ok_or_else(|| {
            XdmError::new(
                ErrorCode::DSP0005,
                format!("web service {} has no operation {name}", self.name),
            )
        })?;
        let key = request_fingerprint(name, request);
        let access = self.access();
        access.run_read(
            &self.name,
            Op::Call,
            || {
                let resp = (op.handler)(request)?;
                self.cache_insert(key.clone(), resp.clone());
                Ok(resp)
            },
            // Stale-read fallback: any resident response qualifies,
            // whatever its epoch — this path is the explicit, counted
            // degraded read — unless a sealed arena was written in
            // place since it was stored.
            || match self.response_cache.borrow().peek(&key) {
                Some((_, w, r)) if *w == xdm::sealed_writes() => Some(r.clone()),
                _ => None,
            },
        )
    }

    /// The paper's credit-rating service (Figures 2/3): takes a
    /// `getCreditRating` request with `lastName` and `ssn` children and
    /// returns a `getCreditRatingResponse` with a numeric `value`.
    /// Deterministic: the rating is a stable hash of the SSN into
    /// 300–850 (the paper's testbed service is unavailable; this
    /// preserves the call shape and a realistic output domain).
    pub fn credit_rating(namespace: &str) -> WebService {
        let mut svc = WebService::new("CreditRating", namespace);
        svc.add_operation(
            "getCreditRating",
            "getCreditRating",
            "getCreditRatingResponse",
            credit_rating_handler(namespace.to_string()),
        );
        svc
    }

    /// [`WebService::credit_rating`] with `delay_us` microseconds of
    /// real per-call latency in the handler — a stand-in for the wire
    /// round trip to the paper's remote rating service. The E14
    /// serving-pool experiment uses this: on a single-core host,
    /// throughput scaling comes from workers *overlapping* these
    /// waits, exactly the middle-tier regime ALDSP served.
    pub fn credit_rating_delayed(namespace: &str, delay_us: u64) -> WebService {
        let inner = credit_rating_handler(namespace.to_string());
        let mut svc = WebService::new("CreditRating", namespace);
        // A throughput benchmark over a cached source measures the
        // cache, not the source: disable the read-through response
        // cache so every request honestly pays the simulated wire
        // latency.
        svc.set_response_cache_capacity(0);
        svc.add_operation(
            "getCreditRating",
            "getCreditRating",
            "getCreditRatingResponse",
            Rc::new(move |request: &Sequence| {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                inner(request)
            }),
        );
        svc
    }
}

/// The shared `getCreditRating` handler body (see
/// [`WebService::credit_rating`] for the semantics).
fn credit_rating_handler(ns2: String) -> WsHandler {
    Rc::new(move |request: &Sequence| {
                let req = request.exactly_one()?;
                let Item::Node(node) = req else {
                    return Err(XdmError::new(
                        ErrorCode::XPTY0004,
                        "getCreditRating expects an element request",
                    ));
                };
                // A malformed request (missing message part) must be
                // rejected loudly — silently scoring an empty SSN
                // would hand every malformed caller the same bogus
                // rating. `aldsp:SRC_BAD_REQUEST` is never retried.
                let child = |local: &str| -> XdmResult<String> {
                    node.children()
                        .iter()
                        .find(|c| c.name().map(|q| q.local.clone()).as_deref() == Some(local))
                        .map(|c| c.string_value())
                        .filter(|v| !v.is_empty())
                        .ok_or_else(|| {
                            AldspCode::SrcBadRequest.error(format!(
                                "getCreditRating request is missing required \
                                 message part '{local}'"
                            ))
                        })
                };
                let ssn = child("ssn")?;
                let last = child("lastName")?;
                let rating = credit_score(&ssn, &last);
                let resp = NodeHandle::root_element(QName::with_prefix_ns(
                    "cre2",
                    ns2.clone(),
                    "getCreditRatingResponse",
                ));
                let v = NodeHandle::new_element(
                    resp.arena(),
                    QName::with_prefix_ns("cre2", ns2.clone(), "value"),
                );
                v.append_child(&NodeHandle::new_text(resp.arena(), rating.to_string()))?;
                resp.append_child(&v)?;
                Ok(Sequence::one(Item::Node(resp)))
    })
}

/// A stable key for one (operation, request) pair, used by the
/// response cache and the per-evaluation memo. String values are
/// enough for the simulator's document-style requests.
pub fn request_fingerprint(op: &str, request: &Sequence) -> String {
    let mut key = String::from(op);
    for item in request.items() {
        key.push('\u{1}');
        key.push_str(&item.string_value());
    }
    key
}

/// Deterministic FICO-range score from SSN + last name.
pub fn credit_score(ssn: &str, last_name: &str) -> u32 {
    let mut h: u32 = 2166136261;
    for b in ssn.bytes().chain(last_name.bytes()) {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    300 + (h % 551)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use xmlparse::parse;

    fn request(ssn: &str, last: &str) -> Sequence {
        let xml = format!(
            "<getCreditRating xmlns=\"urn:cr\">\
             <lastName>{last}</lastName><ssn>{ssn}</ssn></getCreditRating>"
        );
        let doc = parse(&xml).unwrap();
        Sequence::one(Item::Node(doc.children()[0].clone()))
    }

    #[test]
    fn credit_rating_is_deterministic_and_in_range() {
        let svc = WebService::credit_rating("urn:cr");
        let r1 = svc.call("getCreditRating", &request("123-45-6789", "Carey")).unwrap();
        let r2 = svc.call("getCreditRating", &request("123-45-6789", "Carey")).unwrap();
        let v1 = r1.items()[0].string_value();
        assert_eq!(v1, r2.items()[0].string_value());
        let n: u32 = v1.parse().unwrap();
        assert!((300..=850).contains(&n), "rating {n} out of FICO range");
    }

    #[test]
    fn different_inputs_vary() {
        let a = credit_score("111-11-1111", "Smith");
        let b = credit_score("222-22-2222", "Jones");
        assert_ne!(a, b);
    }

    #[test]
    fn response_shape_matches_figure3() {
        // Figure 3 reads $getCreditRatingResponse/cre2:value.
        let svc = WebService::credit_rating("urn:cr");
        let resp = svc.call("getCreditRating", &request("1", "X")).unwrap();
        let Item::Node(n) = &resp.items()[0] else { panic!() };
        assert_eq!(n.name().unwrap().local, "getCreditRatingResponse");
        assert_eq!(n.name().unwrap().ns.as_deref(), Some("urn:cr"));
        let v = &n.children()[0];
        assert_eq!(v.name().unwrap().local, "value");
    }

    #[test]
    fn unknown_operation_is_dsp0005() {
        let svc = WebService::credit_rating("urn:cr");
        let err = svc.call("nosuch", &Sequence::empty()).unwrap_err();
        assert!(err.is(xdm::error::ErrorCode::DSP0005));
    }

    #[test]
    fn malformed_request_raises_bad_request_not_empty() {
        let svc = WebService::credit_rating("urn:cr");
        // Missing <ssn> part entirely.
        let xml = "<getCreditRating xmlns=\"urn:cr\">\
                   <lastName>Carey</lastName></getCreditRating>";
        let doc = parse(xml).unwrap();
        let req = Sequence::one(Item::Node(doc.children()[0].clone()));
        let err = svc.call("getCreditRating", &req).unwrap_err();
        assert_eq!(
            crate::errors::AldspCode::of(&err),
            Some(crate::errors::AldspCode::SrcBadRequest)
        );
        assert!(err.message.contains("ssn"));
        // Empty <ssn> is just as malformed.
        let err = svc.call("getCreditRating", &request("", "Carey")).unwrap_err();
        assert_eq!(
            crate::errors::AldspCode::of(&err),
            Some(crate::errors::AldspCode::SrcBadRequest)
        );
    }

    #[test]
    fn cached_serves_read_through_hits() {
        let svc = WebService::credit_rating("urn:cr");
        let req = request("3", "C");
        assert!(svc.cached("getCreditRating", &req).is_none());
        let fresh = svc.call("getCreditRating", &req).unwrap();
        let hit = svc.cached("getCreditRating", &req).unwrap();
        assert_eq!(fresh.items()[0].string_value(), hit.items()[0].string_value());
    }

    #[test]
    fn response_cache_is_bounded_and_counts_evictions() {
        use crate::fault::FaultPlan;
        use crate::resilience::{Policy, Resilience};
        use parking_lot::Mutex;
        use std::sync::Arc;

        let svc = WebService::credit_rating("urn:cr");
        let res = Arc::new(Mutex::new(Resilience::new(Policy::default())));
        svc.set_access(Access {
            injector: Some(Arc::new(Mutex::new(crate::fault::FaultInjector::new(
                FaultPlan::new(),
            )))),
            resilience: Some(Arc::clone(&res)),
        });
        svc.set_response_cache_capacity(2);
        for (ssn, last) in [("1", "A"), ("2", "B"), ("3", "C"), ("4", "D")] {
            svc.call("getCreditRating", &request(ssn, last)).unwrap();
        }
        assert_eq!(svc.response_cache_len(), 2, "cache stays at capacity");
        assert_eq!(res.lock().stats().cache_evictions, 2, "two forced evictions");
    }

    #[test]
    fn write_invalidates_read_through_but_not_stale_fallback() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRule};
        use crate::resilience::{Policy, Resilience};
        use parking_lot::Mutex;
        use std::sync::Arc;

        // A handler backed by mutable state: its answer changes after
        // a "write".
        let state = Rc::new(std::cell::Cell::new(1i64));
        let mut svc = WebService::new("Mut", "urn:mut");
        let st = Rc::clone(&state);
        svc.add_operation(
            "val",
            "req",
            "resp",
            Rc::new(move |_req| Ok(Sequence::one(Item::string(st.get().to_string())))),
        );
        let req = Sequence::one(Item::string("k"));
        assert_eq!(svc.call("val", &req).unwrap().items()[0].string_value(), "1");
        assert!(svc.cached("val", &req).is_some(), "read-through warm");

        // The write: a registered service's epoch is its engine's
        // source-write count, which the write moves.
        state.set(2);
        svc.write_epoch.set(svc.write_epoch.get() + 1);
        assert!(
            svc.cached("val", &req).is_none(),
            "fresh path must not serve the pre-write response"
        );
        assert_eq!(
            svc.call("val", &req).unwrap().items()[0].string_value(),
            "2",
            "the re-issued call observes the post-write answer"
        );
        assert!(svc.cached("val", &req).is_some(), "re-stamped at the new epoch");

        // Old-epoch entries still serve the *explicit* degraded path:
        // bump again, then take the service down — the read answers
        // from the resident (pre-write) entry and is counted stale.
        let res = Arc::new(Mutex::new(Resilience::new(Policy::default())));
        svc.set_access(Access {
            injector: Some(Arc::new(Mutex::new(FaultInjector::new(
                FaultPlan::new()
                    .rule(FaultRule::any_op("Mut", FaultKind::Permanent)),
            )))),
            resilience: Some(Arc::clone(&res)),
        });
        state.set(3);
        svc.write_epoch.set(svc.write_epoch.get() + 1);
        let r = svc.call("val", &req).unwrap();
        assert_eq!(r.items()[0].string_value(), "2", "outage serves the stale entry");
        assert_eq!(res.lock().stats().stale_reads, 1, "counted as a stale read");
    }

    #[test]
    fn operation_metadata_for_introspection() {
        let svc = WebService::credit_rating("urn:cr");
        assert_eq!(svc.operation_names(), vec!["getCreditRating"]);
        let op = svc.operation("getCreditRating").unwrap();
        assert_eq!(op.input_element, "getCreditRating");
        assert_eq!(op.output_element, "getCreditRatingResponse");
    }
}
