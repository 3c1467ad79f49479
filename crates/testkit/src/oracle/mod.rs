//! Independent reference oracles.
//!
//! Every oracle here is written for *clarity*, not speed, and re-derives its
//! answer from first principles rather than calling into the production
//! engines:
//!
//! * [`dense_simplex`] — a textbook two-phase dense-tableau simplex with
//!   Bland's rule (guaranteed termination), operating on a neutral
//!   [`LpInstance`](crate::gen::LpInstance) rather than on `fbb_lp::Model`;
//! * [`enumerate`] — brute-force enumeration of every `P^N` row→level
//!   assignment of a small cluster instance, with feasibility, leakage, and
//!   cluster counting recomputed from the raw tables;
//! * [`naive_sta`] — a queue-based (Kahn) topological STA built directly on
//!   the `fbb_netlist` public API, sharing nothing with `fbb_sta`'s
//!   levelized graph;
//! * [`pass_two`] — the two-pass heuristic's `MaxDrop` `PassTwo` by its
//!   definition, one descent per cluster budget on the public
//!   `CheckState`, which the heuristic's single forking descent must match
//!   bit for bit.

pub mod dense_simplex;
pub mod enumerate;
pub mod naive_sta;
pub mod pass_two;
