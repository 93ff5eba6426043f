//! # fluxcomp-serve
//!
//! A **std-only compass fix server**: the serving layer that turns the
//! workspace's measurement core into a network service, the way a
//! deployed smart-sensor hub would expose its compass to many clients.
//!
//! * [`protocol`] — the length-prefixed binary wire format
//!   (`FixRequest` → `FixResponse`, typed [`Status`] bytes);
//! * [`queue`] — the bounded batch queue: backpressure by construction
//!   (a full queue is an immediate typed `Overloaded`, never an
//!   unbounded buffer);
//! * [`cache`] — the sharded LRU fix cache deduplicating identical
//!   `(field, seed)` fixes, keyed on exact float bit patterns (`-0.0`
//!   folded onto `+0.0`);
//! * [`server`] — [`FixServer`]: acceptor thread, per-connection
//!   readers, and a worker pool where each worker owns one
//!   `MeasureScratch` (zero allocation on the steady-state fix path)
//!   and shares the immutable `CompassDesign`;
//! * [`loadgen`] — the open-loop load generator with p50/p95/p99
//!   latency reporting, per-status accounting, and deterministic
//!   jittered retry of `Overloaded` responses under a run-wide budget.
//!
//! ## Fault injection and degraded mode
//!
//! The server measures every fix through the health-checked compass
//! path: `FLUXCOMP_FAULT_PLAN` (see `fluxcomp_faults::FaultPlan`)
//! injects seeded deterministic sensor faults, per-axis health scoring
//! grades each fix `Good`/`Degraded`/`Invalid`, and the wire protocol
//! carries the quality in the response flags (protocol v2; v1 clients
//! still interoperate). `Invalid` fixes are answered as
//! [`Status::Unmeasurable`] with the held last-good heading. Workers
//! that keep producing non-`Good` fixes quarantine themselves and probe
//! for recovery — see [`server`] for the state machine.
//!
//! Everything is `std` — threads, `TcpListener`, `Mutex`/`Condvar` —
//! with no async runtime, matching the workspace's no-external-deps
//! rule. Observability flows through `fluxcomp-obs` (`FLUXCOMP_OBS=json`
//! to see `serve.*` counters, gauges, histograms and spans).
//!
//! ## Guarantees
//!
//! * **Bit-exactness** — a served fix equals a direct
//!   `CompassDesign::measure_heading_scratch` call with the same seed,
//!   bit for bit, cached or not.
//! * **Typed degradation** — overload and deadline misses produce
//!   `Overloaded` / `DeadlineExceeded` responses, never a silent drop
//!   or hang.
//! * **Graceful shutdown** — every request accepted into the queue is
//!   answered before the workers exit.
//!
//! ## Quickstart
//!
//! ```
//! use fluxcomp_compass::{CompassConfig, CompassDesign};
//! use fluxcomp_serve::{FixServer, LoadGenConfig, ServeConfig};
//!
//! let design = CompassDesign::new(CompassConfig::paper_design()).unwrap();
//! let mut server = FixServer::start(design, ServeConfig::default()).unwrap();
//! let report = fluxcomp_serve::loadgen::run(&LoadGenConfig {
//!     addr: server.local_addr().to_string(),
//!     requests: 32,
//!     connections: 2,
//!     ..LoadGenConfig::default()
//! })
//! .unwrap();
//! assert_eq!(report.ok, 32);
//! assert_eq!(report.protocol_errors, 0);
//! server.shutdown();
//! ```

pub mod cache;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CachedFix, FixCache, FixKey};
pub use loadgen::{LoadGenConfig, LoadReport};
pub use protocol::{FieldSpec, FixRequest, FixResponse, ProtocolError, Status};
pub use queue::{BatchQueue, PushError};
pub use server::{FixServer, ServeConfig, WorkerFault};
