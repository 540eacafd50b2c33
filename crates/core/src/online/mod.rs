//! The online (streaming) case — paper §3.
//!
//! [`indicator`] holds the one Algorithm-2 kernel (per-clip evaluation
//! with short-circuiting), which probes a clip either exhaustively or
//! under a [`planner`] plan; only its typed [`GapReason`] is public.
//! [`engine`] implements Algorithms 1 and 3 (SVAQ and SVAQD) as one
//! engine parameterized by [`crate::config::ParameterPolicy`], and is the
//! kernel's only caller; [`service`] runs many engines over one stream
//! as a multi-tenant standing-query service with admission control and
//! backpressure (a batch of queries is a service run with every query
//! submitted at tick 0); [`planner`] elides provably irrelevant model
//! calls via sound reachability bounds (DESIGN.md §14).

pub mod engine;
pub mod indicator;
pub mod planner;
pub mod service;

pub use engine::{
    ClipRecord, EngineCheckpoint, GapMarker, OnlineEngine, OnlineResult, SharedScanCaches,
};
pub use indicator::GapReason;
pub use service::{
    run_service, OverloadPolicy, QueryId, QuerySpec, ServiceConfig, ServiceEvent, ServiceHost,
    ServiceLimits, ServiceReport, StandingQueryService, TenantId,
};
