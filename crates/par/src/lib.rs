//! # sirius-par
//!
//! The bounded multi-producer multi-consumer [`queue`] that connects the
//! stage pools of the `sirius-server` runtime.
//!
//! The services run one thread per query; the data-parallel kernel ports of
//! the paper's CMP study (Section 4.3.1) live in `sirius_suite::parallel`.

#![warn(missing_docs)]

pub mod queue;
