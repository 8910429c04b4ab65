//! The interpreter: fuel-metered execution of a [`Program`] against a
//! [`Host`].
//!
//! An agent's *migrating state* ([`AgentState`]) — its globals and the
//! results it has accumulated — survives across sites: the MAS serializes it
//! into the transfer message along with the program, exactly as Aglets
//! serializes an agent's fields. Locals and the operand stack are per-site
//! scratch space (the paper's platform, like most weak-mobility systems,
//! resumes agents from their entry point at each hop).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use pdagent_codec::varint;

use crate::isa::Instr;
use crate::program::Program;
use crate::value::{decode_at, Decode, Scalar, Value, MAX_DEPTH};

/// Number of local variable slots: one for every `load`/`store` operand.
pub const LOCALS: usize = u8::MAX as usize + 1;
/// Operand stack limit.
pub const STACK_LIMIT: usize = 1024;

/// The interface through which an agent touches the site it is running on.
pub trait Host {
    /// Invoke an operation on a named site service (e.g.
    /// `bank.transfer(from, to, amount)`). Errors become [`VmError::Host`].
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String>;

    /// A launch parameter by name (`None` → the VM pushes `Nil`).
    fn param(&self, name: &str) -> Option<Value>;

    /// The launch parameter `name` in its binary encoding
    /// ([`Value::encode`]), for a host that keeps its parameters encoded:
    /// [`run`] decodes it straight into its own shared values, and traps
    /// with [`VmError::Host`] if it is malformed. With `None`, the default,
    /// [`run`] asks [`Host::param`].
    fn param_bytes(&self, _name: &str) -> Option<&[u8]> {
        None
    }

    /// Append a value to the agent's result document.
    fn emit(&mut self, key: &str, value: Value);

    /// Name of the site the agent is currently executing at. [`run`] reads
    /// it at most once and reuses it, so it must stay constant for the
    /// duration of a run.
    fn site_name(&self) -> &str;
}

/// A simple map-backed host for tests and local (device-side) dry runs.
#[derive(Debug, Default)]
pub struct MapHost {
    site: String,
    params: BTreeMap<String, Value>,
    emitted: Vec<(String, Value)>,
    /// Canned service responses: `(service, op)` → result.
    pub services: BTreeMap<(String, String), Value>,
}

impl MapHost {
    /// A host for the named site.
    pub fn new(site: impl Into<String>) -> MapHost {
        MapHost { site: site.into(), ..Default::default() }
    }

    /// Set a launch parameter.
    pub fn set_param(&mut self, name: impl Into<String>, value: Value) {
        self.params.insert(name.into(), value);
    }

    /// Install a canned service response.
    pub fn set_service(&mut self, service: &str, op: &str, result: Value) {
        self.services.insert((service.to_owned(), op.to_owned()), result);
    }

    /// First emitted value for `key`.
    pub fn emitted(&self, key: &str) -> Option<&Value> {
        self.emitted.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All emitted pairs in order.
    pub fn all_emitted(&self) -> &[(String, Value)] {
        &self.emitted
    }
}

impl Host for MapHost {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        self.services
            .get(&(service.to_owned(), op.to_owned()))
            .cloned()
            .ok_or_else(|| format!("no service {service}.{op} (args {args:?})"))
    }

    fn param(&self, name: &str) -> Option<Value> {
        self.params.get(name).cloned()
    }

    fn emit(&mut self, key: &str, value: Value) {
        self.emitted.push((key.to_owned(), value));
    }

    fn site_name(&self) -> &str {
        &self.site
    }
}

/// An execution fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Operand stack underflow.
    StackUnderflow {
        /// Instruction index.
        at: usize,
    },
    /// Operand stack overflow (runaway agent).
    StackOverflow {
        /// Instruction index.
        at: usize,
    },
    /// Type mismatch for an operation.
    TypeError {
        /// Instruction index.
        at: usize,
        /// Description.
        message: String,
    },
    /// Division or modulo by zero.
    DivisionByZero {
        /// Instruction index.
        at: usize,
    },
    /// List index out of range.
    IndexOutOfRange {
        /// Instruction index.
        at: usize,
    },
    /// A host invoke returned an error.
    Host {
        /// Instruction index.
        at: usize,
        /// Host-provided message.
        message: String,
    },
    /// `listpush` would nest lists deeper than [`MAX_DEPTH`], the depth
    /// every value codec accepts.
    NestingTooDeep {
        /// Instruction index.
        at: usize,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::StackUnderflow { at } => write!(f, "stack underflow at {at}"),
            VmError::StackOverflow { at } => write!(f, "stack overflow at {at}"),
            VmError::TypeError { at, message } => write!(f, "type error at {at}: {message}"),
            VmError::DivisionByZero { at } => write!(f, "division by zero at {at}"),
            VmError::IndexOutOfRange { at } => write!(f, "index out of range at {at}"),
            VmError::Host { at, message } => write!(f, "host error at {at}: {message}"),
            VmError::NestingTooDeep { at } => {
                write!(f, "list nesting deeper than {MAX_DEPTH} at {at}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `halt` reached (or fell off the end of the code).
    Completed,
    /// `fail "<msg>"` executed.
    Failed(String),
    /// The fuel budget ran out (runaway/hostile agent contained).
    OutOfFuel,
    /// An execution fault.
    Trapped(VmError),
}

/// The agent's migrating state: globals + instruction count, serialized into
/// agent-transfer messages between sites.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentState {
    /// Named globals that persist across hops (`gload`/`gstore`).
    pub globals: BTreeMap<String, Value>,
    /// Total instructions executed across all hops (accounting).
    pub instructions: u64,
}

impl AgentState {
    /// Serialize to bytes (for the MAS transfer protocol).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, self.instructions);
        varint::write_usize(&mut out, self.globals.len());
        for (k, v) in &self.globals {
            varint::write_usize(&mut out, k.len());
            out.extend_from_slice(k.as_bytes());
            v.encode(&mut out);
        }
        out
    }

    /// Deserialize from bytes.
    pub fn from_bytes(input: &[u8]) -> Option<AgentState> {
        let mut pos = 0;
        let instructions = varint::read_u64(input, &mut pos).ok()?;
        let n = varint::read_usize(input, &mut pos).ok()?;
        if n > input.len() {
            return None;
        }
        let mut globals = BTreeMap::new();
        for _ in 0..n {
            let klen = varint::read_usize(input, &mut pos).ok()?;
            let end = pos.checked_add(klen)?;
            if end > input.len() {
                return None;
            }
            let k = std::str::from_utf8(&input[pos..end]).ok()?.to_owned();
            pos = end;
            let v = Value::decode(input, &mut pos).ok()?;
            globals.insert(k, v);
        }
        Some(AgentState { globals, instructions })
    }
}

/// A value as [`run`] holds it on its operand stack, in its locals and in
/// its constant pool: a [`Value`] whose strings and lists are shared, so
/// `load`, `dup`, `listget` and constant pushes copy a pointer instead of a
/// tree. It never leaves `run`; it converts to and from `Value` only where
/// the agent touches its host or its migrating globals, and a parameter a
/// host keeps encoded ([`Host::param_bytes`]) decodes straight into it.
///
/// A list carries its nesting depth (1 for a list of scalars), so `listpush`
/// can refuse to build a value deeper than [`MAX_DEPTH`] without walking it:
/// converting, encoding, rendering and dropping a value all recurse once per
/// level, and an unbounded depth would let an agent overflow the host's
/// stack.
#[derive(Clone, PartialEq)]
enum Val {
    Nil,
    Bool(bool),
    Int(i64),
    Str(Rc<str>),
    List(Rc<Vec<Val>>, u32),
}

impl Val {
    /// [`Value::truthy`].
    fn truthy(&self) -> bool {
        match self {
            Val::Nil => false,
            Val::Bool(b) => *b,
            Val::Int(i) => *i != 0,
            Val::Str(s) => !s.is_empty(),
            Val::List(l, _) => !l.is_empty(),
        }
    }

    /// List nesting depth: 0 for a scalar.
    fn depth(&self) -> u32 {
        match self {
            Val::List(_, depth) => *depth,
            _ => 0,
        }
    }

    /// [`Value::type_name`].
    fn type_name(&self) -> &'static str {
        match self {
            Val::Nil => "nil",
            Val::Bool(_) => "bool",
            Val::Int(_) => "int",
            Val::Str(_) => "str",
            Val::List(..) => "list",
        }
    }

    /// Append the [`Value::render`] form to `out`.
    fn render_into(&self, out: &mut String) {
        match self {
            Val::Nil => out.push_str("nil"),
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Val::Str(s) => out.push_str(s),
            Val::List(items, _) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
        }
    }
}

impl Decode for Val {
    fn scalar(s: Scalar<'_>) -> Val {
        match s {
            Scalar::Nil => Val::Nil,
            Scalar::Bool(b) => Val::Bool(b),
            Scalar::Int(i) => Val::Int(i),
            Scalar::Str(s) => Val::Str(Rc::from(s)),
        }
    }

    fn list(items: Vec<Val>) -> Val {
        let depth = items.iter().map(Val::depth).max().unwrap_or(0).saturating_add(1);
        Val::List(Rc::new(items), depth)
    }
}

impl From<&Value> for Val {
    fn from(v: &Value) -> Val {
        match v {
            Value::Nil => Val::Nil,
            Value::Bool(b) => Val::Bool(*b),
            Value::Int(i) => Val::Int(*i),
            Value::Str(s) => Val::Str(Rc::from(s.as_str())),
            Value::List(items) => Val::list(items.iter().map(Val::from).collect()),
        }
    }
}

impl From<&Val> for Value {
    fn from(v: &Val) -> Value {
        match v {
            Val::Nil => Value::Nil,
            Val::Bool(b) => Value::Bool(*b),
            Val::Int(i) => Value::Int(*i),
            Val::Str(s) => Value::Str(String::from(&**s)),
            Val::List(items, _) => Value::List(items.iter().map(Value::from).collect()),
        }
    }
}

/// A constant used as a name (a global, service, operation, parameter,
/// result key or failure message): a `Str` is borrowed, anything else is
/// rendered.
fn name(c: &Value) -> Cow<'_, str> {
    match c {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.render()),
    }
}

/// `a` and `b` rendered back to back into one new string, built in the
/// reusable `text` buffer.
fn concat(text: &mut String, a: &Val, b: &Val) -> Val {
    text.clear();
    a.render_into(text);
    b.render_into(text);
    Val::Str(Rc::from(text.as_str()))
}

/// Execute `program` against `host` with at most `fuel` instructions,
/// reading and updating the agent's migrating `state`.
pub fn run(program: &Program, state: &mut AgentState, host: &mut dyn Host, fuel: u64) -> Outcome {
    debug_assert!(program.validate().is_ok(), "run() requires a validated program");
    let consts: Vec<Val> = program.consts.iter().map(Val::from).collect();
    let mut stack: Vec<Val> = Vec::with_capacity(32);
    let mut locals: Vec<Val> = vec![Val::Nil; LOCALS];
    let mut site: Option<Rc<str>> = None;
    let mut text = String::new();
    let mut pc: usize = 0;
    let mut remaining = fuel;

    macro_rules! pop {
        ($at:expr) => {
            match stack.pop() {
                Some(v) => v,
                None => return Outcome::Trapped(VmError::StackUnderflow { at: $at }),
            }
        };
    }
    macro_rules! push {
        ($at:expr, $v:expr) => {{
            if stack.len() >= STACK_LIMIT {
                return Outcome::Trapped(VmError::StackOverflow { at: $at });
            }
            stack.push($v);
        }};
    }
    macro_rules! pop_int {
        ($at:expr, $opname:expr) => {
            match pop!($at) {
                Val::Int(i) => i,
                other => {
                    return Outcome::Trapped(VmError::TypeError {
                        at: $at,
                        message: format!("{} expects int, got {}", $opname, other.type_name()),
                    })
                }
            }
        };
    }
    macro_rules! name {
        ($i:expr) => {
            name(&program.consts[$i as usize])
        };
    }

    while pc < program.code.len() {
        if remaining == 0 {
            return Outcome::OutOfFuel;
        }
        remaining -= 1;
        state.instructions += 1;
        let at = pc;
        let ins = program.code[pc];
        pc += 1;
        match ins {
            Instr::PushConst(i) => push!(at, consts[i as usize].clone()),
            Instr::PushInt(v) => push!(at, Val::Int(v)),
            Instr::PushTrue => push!(at, Val::Bool(true)),
            Instr::PushFalse => push!(at, Val::Bool(false)),
            Instr::PushNil => push!(at, Val::Nil),
            Instr::Dup => {
                let v = pop!(at);
                push!(at, v.clone());
                push!(at, v);
            }
            Instr::Pop => {
                pop!(at);
            }
            Instr::Swap => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, b);
                push!(at, a);
            }
            Instr::Load(n) => push!(at, locals[n as usize].clone()),
            Instr::Store(n) => locals[n as usize] = pop!(at),
            Instr::GLoad(i) => {
                let v = state.globals.get(&*name!(i)).map_or(Val::Nil, Val::from);
                push!(at, v);
            }
            Instr::GStore(i) => {
                let v = Value::from(&pop!(at));
                let key = name!(i);
                match state.globals.get_mut(&*key) {
                    Some(slot) => *slot = v,
                    None => {
                        state.globals.insert(key.into_owned(), v);
                    }
                }
            }
            Instr::Add => {
                let b = pop!(at);
                let a = pop!(at);
                match (&a, &b) {
                    (Val::Int(x), Val::Int(y)) => push!(at, Val::Int(x.wrapping_add(*y))),
                    (Val::Str(_), _) | (_, Val::Str(_)) => push!(at, concat(&mut text, &a, &b)),
                    _ => {
                        return Outcome::Trapped(VmError::TypeError {
                            at,
                            message: format!(
                                "add: {} + {}",
                                a.type_name(),
                                b.type_name()
                            ),
                        })
                    }
                }
            }
            Instr::Sub => {
                let b = pop_int!(at, "sub");
                let a = pop_int!(at, "sub");
                push!(at, Val::Int(a.wrapping_sub(b)));
            }
            Instr::Mul => {
                let b = pop_int!(at, "mul");
                let a = pop_int!(at, "mul");
                push!(at, Val::Int(a.wrapping_mul(b)));
            }
            Instr::Div => {
                let b = pop_int!(at, "div");
                let a = pop_int!(at, "div");
                if b == 0 {
                    return Outcome::Trapped(VmError::DivisionByZero { at });
                }
                push!(at, Val::Int(a.wrapping_div(b)));
            }
            Instr::Mod => {
                let b = pop_int!(at, "mod");
                let a = pop_int!(at, "mod");
                if b == 0 {
                    return Outcome::Trapped(VmError::DivisionByZero { at });
                }
                push!(at, Val::Int(a.wrapping_rem(b)));
            }
            Instr::Neg => {
                let a = pop_int!(at, "neg");
                push!(at, Val::Int(a.wrapping_neg()));
            }
            Instr::Eq => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Val::Bool(a == b));
            }
            Instr::Ne => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Val::Bool(a != b));
            }
            Instr::Lt | Instr::Le | Instr::Gt | Instr::Ge => {
                let b = pop!(at);
                let a = pop!(at);
                let ord = match (&a, &b) {
                    (Val::Int(x), Val::Int(y)) => x.cmp(y),
                    (Val::Str(x), Val::Str(y)) => x.cmp(y),
                    _ => {
                        return Outcome::Trapped(VmError::TypeError {
                            at,
                            message: format!(
                                "compare: {} vs {}",
                                a.type_name(),
                                b.type_name()
                            ),
                        })
                    }
                };
                let result = match ins {
                    Instr::Lt => ord.is_lt(),
                    Instr::Le => ord.is_le(),
                    Instr::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                };
                push!(at, Val::Bool(result));
            }
            Instr::And => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Val::Bool(a.truthy() && b.truthy()));
            }
            Instr::Or => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Val::Bool(a.truthy() || b.truthy()));
            }
            Instr::Not => {
                let a = pop!(at);
                push!(at, Val::Bool(!a.truthy()));
            }
            Instr::Concat => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, concat(&mut text, &a, &b));
            }
            Instr::Jump(t) => pc = t as usize,
            Instr::JumpIfFalse(t) => {
                if !pop!(at).truthy() {
                    pc = t as usize;
                }
            }
            Instr::ListNew => push!(at, Val::List(Rc::default(), 1)),
            Instr::ListPush => {
                let v = pop!(at);
                match pop!(at) {
                    // Copy on write: a list still held by a local or another
                    // stack slot is cloned (shallowly) before the push.
                    Val::List(mut items, depth) => {
                        let depth = depth.max(v.depth().saturating_add(1));
                        if depth as usize > MAX_DEPTH {
                            return Outcome::Trapped(VmError::NestingTooDeep { at });
                        }
                        Rc::make_mut(&mut items).push(v);
                        push!(at, Val::List(items, depth));
                    }
                    other => {
                        return Outcome::Trapped(VmError::TypeError {
                            at,
                            message: format!("listpush on {}", other.type_name()),
                        })
                    }
                }
            }
            Instr::ListGet => {
                let idx = pop_int!(at, "listget");
                match pop!(at) {
                    Val::List(items, _) => {
                        let Some(v) =
                            usize::try_from(idx).ok().and_then(|i| items.get(i)).cloned()
                        else {
                            return Outcome::Trapped(VmError::IndexOutOfRange { at });
                        };
                        push!(at, v);
                    }
                    other => {
                        return Outcome::Trapped(VmError::TypeError {
                            at,
                            message: format!("listget on {}", other.type_name()),
                        })
                    }
                }
            }
            Instr::ListLen => match pop!(at) {
                Val::List(items, _) => push!(at, Val::Int(items.len() as i64)),
                other => {
                    return Outcome::Trapped(VmError::TypeError {
                        at,
                        message: format!("listlen on {}", other.type_name()),
                    })
                }
            },
            Instr::Invoke(s, o, argc) => {
                let argc = argc as usize;
                if stack.len() < argc {
                    return Outcome::Trapped(VmError::StackUnderflow { at });
                }
                let args: Vec<Value> =
                    stack.drain(stack.len() - argc..).map(|v| Value::from(&v)).collect();
                match host.invoke(&name!(s), &name!(o), &args) {
                    Ok(v) => push!(at, Val::from(&v)),
                    Err(message) => return Outcome::Trapped(VmError::Host { at, message }),
                }
            }
            Instr::Param(i) => {
                let name = name!(i);
                let v = match host.param_bytes(&name) {
                    Some(bytes) => match decode_at::<Val>(bytes, &mut 0, 0) {
                        Ok(v) => v,
                        Err(e) => {
                            let message = format!("parameter {name:?}: {e}");
                            return Outcome::Trapped(VmError::Host { at, message });
                        }
                    },
                    None => host.param(&name).as_ref().map_or(Val::Nil, Val::from),
                };
                push!(at, v);
            }
            Instr::Emit(i) => {
                let v = pop!(at);
                host.emit(&name!(i), Value::from(&v));
            }
            Instr::Site => {
                let here = site.get_or_insert_with(|| Rc::from(host.site_name()));
                push!(at, Val::Str(Rc::clone(here)));
            }
            Instr::Halt => return Outcome::Completed,
            Instr::Fail(i) => return Outcome::Failed(name!(i).into_owned()),
        }
    }
    Outcome::Completed
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    use super::*;
    use crate::asm::assemble;

    fn exec(src: &str) -> (Outcome, MapHost, AgentState) {
        let program = assemble(src).unwrap();
        let mut host = MapHost::new("site-a");
        let mut state = AgentState::default();
        let outcome = run(&program, &mut state, &mut host, 100_000);
        (outcome, host, state)
    }

    #[test]
    fn arithmetic_and_emit() {
        let (out, host, _) = exec(
            r#"
            push 6
            push 7
            mul
            emit "answer"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("answer"), Some(&Value::Int(42)));
    }

    #[test]
    fn string_concat_via_add_and_concat() {
        let (out, host, _) = exec(
            r#"
            push "total: "
            push 99
            add
            emit "msg"
            push 1
            push "x"
            concat
            emit "m2"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("msg"), Some(&Value::Str("total: 99".into())));
        assert_eq!(host.emitted("m2"), Some(&Value::Str("1x".into())));
    }

    #[test]
    fn loop_with_locals() {
        // Sum 1..=10 via a loop.
        let (out, host, _) = exec(
            r#"
            push 0
            store 0      ; acc
            push 1
            store 1      ; i
        loop:
            load 1
            push 10
            le
            jmpf done
            load 0
            load 1
            add
            store 0
            load 1
            push 1
            add
            store 1
            jmp loop
        done:
            load 0
            emit "sum"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("sum"), Some(&Value::Int(55)));
    }

    #[test]
    fn params_and_site() {
        let program = assemble(
            r#"
            param "who"
            site
            concat
            emit "greeting"
            halt
        "#,
        )
        .unwrap();
        let mut host = MapHost::new("bank-1");
        host.set_param("who", Value::Str("alice@".into()));
        let mut state = AgentState::default();
        assert_eq!(run(&program, &mut state, &mut host, 1000), Outcome::Completed);
        assert_eq!(host.emitted("greeting"), Some(&Value::Str("alice@bank-1".into())));
    }

    #[test]
    fn missing_param_is_nil() {
        let (out, host, _) = exec("param \"nope\"\nemit \"x\"\nhalt");
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("x"), Some(&Value::Nil));
    }

    /// A host that keeps its parameter `p` encoded and answers any other
    /// name from `inner`.
    struct EncodedHost {
        p: Vec<u8>,
        inner: MapHost,
    }

    impl Host for EncodedHost {
        fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
            self.inner.invoke(service, op, args)
        }
        fn param(&self, name: &str) -> Option<Value> {
            self.inner.param(name)
        }
        fn param_bytes(&self, name: &str) -> Option<&[u8]> {
            (name == "p").then_some(&self.p[..])
        }
        fn emit(&mut self, key: &str, value: Value) {
            self.inner.emit(key, value)
        }
        fn site_name(&self) -> &str {
            self.inner.site_name()
        }
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    /// Run `param "p"; emit "out"` against a host keeping `p` as `bytes`.
    fn exec_param_bytes(bytes: Vec<u8>) -> (Outcome, Option<Value>) {
        let program = assemble("param \"p\"\nemit \"out\"\nhalt").unwrap();
        let mut host = EncodedHost { p: bytes, inner: MapHost::new("site-a") };
        let outcome = run(&program, &mut AgentState::default(), &mut host, 100);
        (outcome, host.inner.emitted("out").cloned())
    }

    #[test]
    fn encoded_params_decode_into_the_vm_and_others_fall_back_to_param() {
        let list = Value::List(vec![Value::Int(-3), Value::Str("x".into()), Value::Nil]);
        let program = assemble("param \"p\"\nemit \"a\"\nparam \"q\"\nemit \"b\"\nhalt").unwrap();
        let mut host = EncodedHost { p: encoded(&list), inner: MapHost::new("site-a") };
        host.inner.set_param("q", Value::Int(5));
        host.inner.set_param("p", Value::Nil);
        let outcome = run(&program, &mut AgentState::default(), &mut host, 100);
        assert_eq!(outcome, Outcome::Completed);
        assert_eq!(host.inner.emitted("a"), Some(&list));
        assert_eq!(host.inner.emitted("b"), Some(&Value::Int(5)));
    }

    #[test]
    fn malformed_or_too_deep_encoded_params_trap() {
        let deep = (0..=MAX_DEPTH).fold(Value::Nil, |inner, _| Value::List(vec![inner]));
        let mut hostile = [5u8, 1].repeat(200_000);
        hostile.push(0);
        for bytes in
            [vec![], vec![9], vec![4, 100, b'a'], vec![4, 1, 0xff], encoded(&deep), hostile]
        {
            let (outcome, out) = exec_param_bytes(bytes);
            assert!(
                matches!(outcome, Outcome::Trapped(VmError::Host { at: 0, .. })),
                "{outcome:?}"
            );
            assert_eq!(out, None);
        }
    }

    fn value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Nil),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            "\\PC{0,6}".prop_map(Value::Str),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| pvec(inner, 0..4).prop_map(Value::List))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The `Val` decode is `Val::from(&Value::decode(..))`, and
        /// [`Value::skip`] accepts and steps over exactly what
        /// [`Value::decode`] does, on encodings cut short or with one byte
        /// replaced; a `param` of bytes `Value::decode` rejects traps.
        #[test]
        fn encoded_params_decode_like_value_decode(
            v in value(),
            mode in 0u8..3,
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let mut bytes = encoded(&v);
            match mode {
                1 => bytes.truncate(at as usize % (bytes.len() + 1)),
                2 => {
                    let k = at as usize % bytes.len();
                    bytes[k] = byte;
                }
                _ => {}
            }
            let (mut slow_pos, mut fast_pos, mut skip_pos) = (0, 0, 0);
            let slow = Value::decode(&bytes, &mut slow_pos);
            let fast = decode_at::<Val>(&bytes, &mut fast_pos, 0);
            let skip = Value::skip(&bytes, &mut skip_pos);
            prop_assert_eq!(fast.clone().map(|v| Value::from(&v)), slow.clone());
            prop_assert_eq!(skip, slow.clone().map(|_| ()));
            if let (Ok(fast), Ok(slow)) = (&fast, &slow) {
                prop_assert!(*fast == Val::from(slow));
                prop_assert_eq!((fast_pos, skip_pos), (slow_pos, slow_pos));
            }
            let (outcome, out) = exec_param_bytes(bytes);
            match slow {
                Ok(v) => {
                    prop_assert_eq!(outcome, Outcome::Completed);
                    prop_assert_eq!(out, Some(v));
                }
                Err(_) => {
                    prop_assert!(matches!(outcome, Outcome::Trapped(VmError::Host { at: 0, .. })));
                }
            }
        }
    }

    #[test]
    fn globals_persist_across_runs() {
        let program = assemble(
            r#"
            gload "visits"
            push 1
            add
            gstore "visits"
            halt
        "#,
        )
        .unwrap();
        let mut state = AgentState::default();
        // gload of unset global is Nil; Nil + 1 is a type error — seed it.
        state.globals.insert("visits".into(), Value::Int(0));
        for expected in 1..=3 {
            let mut host = MapHost::new(format!("site-{expected}"));
            assert_eq!(run(&program, &mut state, &mut host, 1000), Outcome::Completed);
            assert_eq!(state.globals["visits"], Value::Int(expected));
        }
    }

    #[test]
    fn invoke_dispatches_to_host() {
        let program = assemble(
            r#"
            push "acct-1"
            push 500
            invoke "bank" "withdraw" 2
            emit "receipt"
            halt
        "#,
        )
        .unwrap();
        let mut host = MapHost::new("bank");
        host.set_service("bank", "withdraw", Value::Str("rcpt-77".into()));
        let mut state = AgentState::default();
        assert_eq!(run(&program, &mut state, &mut host, 1000), Outcome::Completed);
        assert_eq!(host.emitted("receipt"), Some(&Value::Str("rcpt-77".into())));
    }

    #[test]
    fn invoke_unknown_service_traps() {
        let (out, _, _) = exec("invoke \"no\" \"op\" 0\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::Host { .. })));
    }

    #[test]
    fn fail_reports_message() {
        let (out, _, _) = exec("fail \"insufficient funds\"");
        assert_eq!(out, Outcome::Failed("insufficient funds".into()));
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let program = assemble("loop:\njmp loop\n").unwrap();
        let mut host = MapHost::new("s");
        let mut state = AgentState::default();
        assert_eq!(run(&program, &mut state, &mut host, 10_000), Outcome::OutOfFuel);
        assert_eq!(state.instructions, 10_000);
    }

    #[test]
    fn stack_underflow_trapped() {
        let (out, _, _) = exec("pop\nhalt");
        assert_eq!(out, Outcome::Trapped(VmError::StackUnderflow { at: 0 }));
        let (out, _, _) = exec("add\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::StackUnderflow { .. })));
    }

    #[test]
    fn stack_overflow_trapped() {
        let (out, _, _) = exec("loop:\npush 1\njmp loop\n");
        assert!(matches!(out, Outcome::Trapped(VmError::StackOverflow { .. })));
    }

    #[test]
    fn division_by_zero_trapped() {
        let (out, _, _) = exec("push 1\npush 0\ndiv\nhalt");
        assert_eq!(out, Outcome::Trapped(VmError::DivisionByZero { at: 2 }));
        let (out, _, _) = exec("push 1\npush 0\nmod\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::DivisionByZero { .. })));
    }

    #[test]
    fn type_errors_trapped() {
        let (out, _, _) = exec("push true\npush 1\nsub\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::TypeError { .. })));
        let (out, _, _) = exec("push 1\npush \"s\"\nlt\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::TypeError { .. })));
    }

    #[test]
    fn list_operations() {
        let (out, host, _) = exec(
            r#"
            listnew
            push 10
            listpush
            push 20
            listpush
            dup
            listlen
            emit "len"
            push 1
            listget
            emit "second"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("len"), Some(&Value::Int(2)));
        assert_eq!(host.emitted("second"), Some(&Value::Int(20)));
    }

    #[test]
    fn listpush_copies_a_list_still_held_by_a_local() {
        let (out, host, _) = exec(
            r#"
            listnew
            push 7
            listpush
            store 0
            load 0
            push 1
            listpush
            emit "pushed"
            load 0
            emit "local"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        let pushed = Value::List(vec![Value::Int(7), Value::Int(1)]);
        assert_eq!(host.emitted("pushed"), Some(&pushed));
        assert_eq!(host.emitted("local"), Some(&Value::List(vec![Value::Int(7)])));
    }

    /// Wrap local 0 in `rounds` fresh lists, then store it in a global.
    fn nesting_agent(rounds: i64) -> String {
        format!(
            r#"
            listnew
            store 0
            push {rounds}
            store 1
        loop:
            load 1
            jmpf done
            listnew
            load 0
            listpush
            store 0
            load 1
            push 1
            sub
            store 1
            jmp loop
        done:
            load 0
            gstore "x"
            halt
        "#
        )
    }

    #[test]
    fn listpush_traps_past_max_depth_instead_of_overflowing_the_host_stack() {
        // A hostile agent nests 20,000 lists and stores the result. Before
        // the depth cap, converting it for `gstore` recursed once per level
        // and aborted the whole process on a 2 MB thread.
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let program = assemble(&nesting_agent(20_000)).unwrap();
                let mut host = MapHost::new("site-a");
                let mut state = AgentState::default();
                let outcome = run(&program, &mut state, &mut host, 1_000_000);
                assert!(state.globals.is_empty(), "nothing deep may reach the globals");
                outcome
            })
            .unwrap()
            .join()
            .expect("the agent must trap, not take the host down");
        assert_eq!(outcome, Outcome::Trapped(VmError::NestingTooDeep { at: 8 }));
    }

    #[test]
    fn max_depth_lists_are_built_and_round_trip_through_the_codec() {
        // 255 wraps of the first list: exactly MAX_DEPTH levels, the deepest
        // value `Value::decode` accepts.
        let program = assemble(&nesting_agent(MAX_DEPTH as i64 - 1)).unwrap();
        let mut host = MapHost::new("site-a");
        let mut state = AgentState::default();
        assert_eq!(run(&program, &mut state, &mut host, 1_000_000), Outcome::Completed);
        let mut depth = 0;
        let mut v = &state.globals["x"];
        while let Value::List(items) = v {
            depth += 1;
            v = items.first().unwrap_or(&Value::Nil);
        }
        assert_eq!(depth, MAX_DEPTH);
        assert_eq!(AgentState::from_bytes(&state.to_bytes()).as_ref(), Some(&state));
    }

    #[test]
    fn every_encodable_local_slot_exists() {
        let (out, host, _) = exec(
            r#"
            push 42
            store 200
            push 9
            store 255
            load 200
            emit "x"
            load 255
            emit "y"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("x"), Some(&Value::Int(42)));
        assert_eq!(host.emitted("y"), Some(&Value::Int(9)));
    }

    #[test]
    fn add_and_concat_render_like_value() {
        let (out, host, _) = exec(
            r#"
            push "n="
            nil
            add
            push true
            concat
            listnew
            push 1
            listpush
            push "a"
            listpush
            listnew
            listpush
            add
            emit "s"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("s"), Some(&Value::Str("n=niltrue[1, a, []]".into())));
    }

    #[test]
    fn list_index_out_of_range_trapped() {
        let (out, _, _) = exec("listnew\npush 0\nlistget\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::IndexOutOfRange { .. })));
        let (out, _, _) = exec("listnew\npush -1\nlistget\nhalt");
        assert!(matches!(out, Outcome::Trapped(VmError::IndexOutOfRange { .. })));
    }

    #[test]
    fn falling_off_the_end_completes() {
        let (out, _, _) = exec("push 1\npop");
        assert_eq!(out, Outcome::Completed);
    }

    #[test]
    fn conditionals() {
        let (out, host, _) = exec(
            r#"
            push 5
            push 3
            gt
            jmpf no
            push "bigger"
            emit "r"
            jmp end
        no:
            push "smaller"
            emit "r"
        end:
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("r"), Some(&Value::Str("bigger".into())));
    }

    #[test]
    fn agent_state_roundtrips() {
        let mut state = AgentState { instructions: 12345, ..Default::default() };
        state.globals.insert("k1".into(), Value::Int(-7));
        state.globals.insert("k2".into(), Value::List(vec![Value::Str("a".into())]));
        let bytes = state.to_bytes();
        assert_eq!(AgentState::from_bytes(&bytes).unwrap(), state);
    }

    #[test]
    fn agent_state_rejects_garbage() {
        assert!(AgentState::from_bytes(&[0xff, 0xff]).is_none());
        let mut state = AgentState::default();
        state.globals.insert("key".into(), Value::Int(1));
        let bytes = state.to_bytes();
        // Truncating mid-globals must fail cleanly.
        assert!(AgentState::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn logic_ops() {
        let (out, host, _) = exec(
            r#"
            push true
            push false
            or
            push true
            and
            not
            emit "v"
            halt
        "#,
        );
        assert_eq!(out, Outcome::Completed);
        assert_eq!(host.emitted("v"), Some(&Value::Bool(false)));
    }
}
