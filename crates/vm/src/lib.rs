//! # pdagent-vm
//!
//! The mobile-agent virtual machine: the Rust answer to the paper's use of
//! Java dynamic class loading.
//!
//! In the original PDAgent, mobile-agent code is Java classes: downloaded to
//! the handheld, stored in its RMS database, shipped inside the XML Packed
//! Information, and instantiated by the gateway's *Agent Creator* for
//! execution on any Aglets-compatible server. Rust has no runtime code
//! loading, so this crate supplies the equivalent mobility substrate: agent
//! behaviour is **bytecode for a small stack machine** — plain data that can
//! be downloaded, stored, compressed, encrypted, shipped and interpreted at
//! any site that speaks the format. This is the same role WASM plays in
//! modern code-mobility systems, sized to the paper's 1–8 KB agent-code
//! budget.
//!
//! * [`value`] — the dynamic [`value::Value`] type agents compute with.
//! * [`isa`] — the instruction set.
//! * [`program`] — [`program::Program`]: constants + code, with binary and
//!   XML serializations (the XML form is what travels inside the PI).
//! * [`asm`] — a line-oriented assembler/disassembler; the example
//!   applications write their agents in this.
//! * [`vm`] — the interpreter with fuel metering and the [`vm::Host`]
//!   interface through which agents call site services, read parameters and
//!   emit results.
//!
//! ```
//! use pdagent_vm::asm::assemble;
//! use pdagent_vm::vm::{run, MapHost, Outcome};
//! use pdagent_vm::value::Value;
//!
//! let program = assemble(r#"
//!     .name adder
//!     param "a"
//!     param "b"
//!     add
//!     emit "sum"
//!     halt
//! "#).unwrap();
//! let mut host = MapHost::new("test-site");
//! host.set_param("a", Value::Int(2));
//! host.set_param("b", Value::Int(40));
//! let outcome = run(&program, &mut Default::default(), &mut host, 10_000);
//! assert_eq!(outcome, Outcome::Completed);
//! assert_eq!(host.emitted("sum"), Some(&Value::Int(42)));
//! ```

pub mod asm;
pub mod isa;
#[cfg(test)]
mod oracle;
pub mod program;
pub mod value;
pub mod vm;

pub use asm::{assemble, disassemble};
pub use program::Program;
pub use value::Value;
pub use vm::{run, AgentState, Host, MapHost, Outcome, VmError};
