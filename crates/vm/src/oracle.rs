//! Differential oracle: the interpreter that the shared-value one replaced.
//!
//! It computes directly on [`Value`]: every `load`, `dup`, `listget` and
//! `push` of a constant deep-copies the value it moves, and every name
//! operand is rendered into a fresh `String`. It is slow and obviously
//! faithful to the instruction semantics, which makes it the reference the
//! production interpreter must match exactly: the same [`Outcome`] (trap
//! locations and messages included), the same migrating state, the same
//! emitted values and the same instruction count, on every program and fuel
//! budget.

use crate::isa::Instr;
use crate::program::Program;
use crate::value::{Value, MAX_DEPTH};
use crate::vm::{AgentState, Host, Outcome, VmError, LOCALS, STACK_LIMIT};

/// List nesting depth of `v`, found by walking it: 0 for a scalar.
fn nesting(v: &Value) -> usize {
    match v {
        Value::List(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
        _ => 0,
    }
}

/// Execute `program` against `host` with at most `fuel` instructions,
/// reading and updating the agent's migrating `state`.
pub fn run(program: &Program, state: &mut AgentState, host: &mut dyn Host, fuel: u64) -> Outcome {
    let mut stack: Vec<Value> = Vec::with_capacity(32);
    let mut locals: Vec<Value> = vec![Value::Nil; LOCALS];
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
                Value::Int(i) => i,
                other => {
                    return Outcome::Trapped(VmError::TypeError {
                        at: $at,
                        message: format!("{} expects int, got {}", $opname, other.type_name()),
                    })
                }
            }
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
            Instr::PushConst(i) => push!(at, program.consts[i as usize].clone()),
            Instr::PushInt(v) => push!(at, Value::Int(v)),
            Instr::PushTrue => push!(at, Value::Bool(true)),
            Instr::PushFalse => push!(at, Value::Bool(false)),
            Instr::PushNil => push!(at, Value::Nil),
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
                let name = program.consts[i as usize].render();
                let v = state.globals.get(&name).cloned().unwrap_or(Value::Nil);
                push!(at, v);
            }
            Instr::GStore(i) => {
                let name = program.consts[i as usize].render();
                let v = pop!(at);
                state.globals.insert(name, v);
            }
            Instr::Add => {
                let b = pop!(at);
                let a = pop!(at);
                match (a, b) {
                    (Value::Int(x), Value::Int(y)) => {
                        push!(at, Value::Int(x.wrapping_add(y)))
                    }
                    (Value::Str(x), y) => push!(at, Value::Str(format!("{x}{y}"))),
                    (x, Value::Str(y)) => push!(at, Value::Str(format!("{x}{y}"))),
                    (x, y) => {
                        return Outcome::Trapped(VmError::TypeError {
                            at,
                            message: format!(
                                "add: {} + {}",
                                x.type_name(),
                                y.type_name()
                            ),
                        })
                    }
                }
            }
            Instr::Sub => {
                let b = pop_int!(at, "sub");
                let a = pop_int!(at, "sub");
                push!(at, Value::Int(a.wrapping_sub(b)));
            }
            Instr::Mul => {
                let b = pop_int!(at, "mul");
                let a = pop_int!(at, "mul");
                push!(at, Value::Int(a.wrapping_mul(b)));
            }
            Instr::Div => {
                let b = pop_int!(at, "div");
                let a = pop_int!(at, "div");
                if b == 0 {
                    return Outcome::Trapped(VmError::DivisionByZero { at });
                }
                push!(at, Value::Int(a.wrapping_div(b)));
            }
            Instr::Mod => {
                let b = pop_int!(at, "mod");
                let a = pop_int!(at, "mod");
                if b == 0 {
                    return Outcome::Trapped(VmError::DivisionByZero { at });
                }
                push!(at, Value::Int(a.wrapping_rem(b)));
            }
            Instr::Neg => {
                let a = pop_int!(at, "neg");
                push!(at, Value::Int(a.wrapping_neg()));
            }
            Instr::Eq => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Value::Bool(a == b));
            }
            Instr::Ne => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Value::Bool(a != b));
            }
            Instr::Lt | Instr::Le | Instr::Gt | Instr::Ge => {
                let b = pop!(at);
                let a = pop!(at);
                let ord = match (&a, &b) {
                    (Value::Int(x), Value::Int(y)) => x.cmp(y),
                    (Value::Str(x), Value::Str(y)) => x.cmp(y),
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
                push!(at, Value::Bool(result));
            }
            Instr::And => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Value::Bool(a.truthy() && b.truthy()));
            }
            Instr::Or => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Value::Bool(a.truthy() || b.truthy()));
            }
            Instr::Not => {
                let a = pop!(at);
                push!(at, Value::Bool(!a.truthy()));
            }
            Instr::Concat => {
                let b = pop!(at);
                let a = pop!(at);
                push!(at, Value::Str(format!("{a}{b}")));
            }
            Instr::Jump(t) => pc = t as usize,
            Instr::JumpIfFalse(t) => {
                if !pop!(at).truthy() {
                    pc = t as usize;
                }
            }
            Instr::ListNew => push!(at, Value::List(Vec::new())),
            Instr::ListPush => {
                let v = pop!(at);
                match pop!(at) {
                    Value::List(mut items) => {
                        items.push(v);
                        let list = Value::List(items);
                        if nesting(&list) > MAX_DEPTH {
                            return Outcome::Trapped(VmError::NestingTooDeep { at });
                        }
                        push!(at, list);
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
                    Value::List(items) => {
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
                Value::List(items) => push!(at, Value::Int(items.len() as i64)),
                other => {
                    return Outcome::Trapped(VmError::TypeError {
                        at,
                        message: format!("listlen on {}", other.type_name()),
                    })
                }
            },
            Instr::Invoke(s, o, argc) => {
                let service = program.consts[s as usize].render();
                let op = program.consts[o as usize].render();
                let argc = argc as usize;
                if stack.len() < argc {
                    return Outcome::Trapped(VmError::StackUnderflow { at });
                }
                let args: Vec<Value> = stack.split_off(stack.len() - argc);
                match host.invoke(&service, &op, &args) {
                    Ok(v) => push!(at, v),
                    Err(message) => return Outcome::Trapped(VmError::Host { at, message }),
                }
            }
            Instr::Param(i) => {
                let name = program.consts[i as usize].render();
                push!(at, host.param(&name).unwrap_or(Value::Nil));
            }
            Instr::Emit(i) => {
                let key = program.consts[i as usize].render();
                let v = pop!(at);
                host.emit(&key, v);
            }
            Instr::Site => push!(at, Value::Str(host.site_name().to_owned())),
            Instr::Halt => return Outcome::Completed,
            Instr::Fail(i) => {
                return Outcome::Failed(program.consts[i as usize].render())
            }
        }
    }
    Outcome::Completed
}

mod tests {
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    use super::*;
    use crate::vm::{self as fast, MapHost};

    /// Local slots the generator touches: the low ones the example agents
    /// use and two above the old 64-slot limit.
    const SLOTS: [u8; 5] = [0, 1, 2, 200, 255];

    /// Names the host and the seeded globals know. Generated constants add
    /// more strings plus ints, bools, nil and lists, which the name-taking
    /// instructions must render.
    const NAMES: [&str; 4] = ["svc", "op", "p", "g"];

    fn leaf() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Nil),
            any::<bool>().prop_map(Value::Bool),
            (0u8..8).prop_map(|i| Value::Int(i as i64 - 2)),
            any::<i64>().prop_map(Value::Int),
            "[ab ]{0,3}".prop_map(Value::Str),
            "\\PC{0,4}".prop_map(Value::Str),
        ]
    }

    fn value() -> impl Strategy<Value = Value> {
        leaf().prop_recursive(2, 12, 3, |inner| pvec(inner, 0..4).prop_map(Value::List))
    }

    fn pick_slot(raw: u16) -> u8 {
        SLOTS[raw as usize % SLOTS.len()]
    }

    /// The `k`th operand pushed ahead of `ins`: mostly of the type it wants,
    /// so that programs run past their first few instructions.
    fn operand(ins: &Instr, k: usize, a: u16, b: u16) -> Instr {
        let small = Instr::PushInt((k as i64 + b as i64) % 3);
        match ins {
            Instr::Sub | Instr::Mul | Instr::Div | Instr::Mod | Instr::Neg => small,
            Instr::ListPush | Instr::ListGet | Instr::ListLen => {
                if k.is_multiple_of(2) {
                    Instr::Load(0)
                } else {
                    small
                }
            }
            _ if k.is_multiple_of(2) => Instr::PushConst(b),
            _ => Instr::Load(pick_slot(a)),
        }
    }

    /// `(operands popped, results pushed)` of an instruction.
    fn arity(ins: &Instr) -> (usize, usize) {
        match ins {
            Instr::PushConst(_)
            | Instr::PushInt(_)
            | Instr::PushTrue
            | Instr::PushFalse
            | Instr::PushNil
            | Instr::Load(_)
            | Instr::GLoad(_)
            | Instr::ListNew
            | Instr::Param(_)
            | Instr::Site => (0, 1),
            Instr::Dup => (1, 2),
            Instr::Swap => (2, 2),
            Instr::Pop | Instr::Store(_) | Instr::GStore(_) | Instr::Emit(_) => (1, 0),
            Instr::JumpIfFalse(_) => (1, 0),
            Instr::Neg | Instr::Not | Instr::ListLen => (1, 1),
            Instr::Invoke(_, _, argc) => (*argc as usize, 1),
            Instr::Jump(_) | Instr::Halt | Instr::Fail(_) => (0, 0),
            _ => (2, 1),
        }
    }

    /// One generator step: a single instruction or a short idiom. Constant,
    /// local and jump operands are raw and resolved by [`program`].
    fn step(op: u8, a: u16, b: u16, v: i64) -> Vec<Instr> {
        use Instr::*;
        let (slot, other) = (pick_slot(a), pick_slot(b));
        match op % 48 {
            0 | 1 => vec![PushConst(a)],
            2 => vec![PushInt(v % 4)],
            3 => vec![PushInt(v)],
            4 => vec![PushTrue],
            5 => vec![PushFalse],
            6 => vec![PushNil],
            7 => vec![Dup],
            8 => vec![Pop],
            9 => vec![Swap],
            10 | 11 => vec![Load(slot)],
            12 => vec![Store(slot)],
            13 => vec![GLoad(a)],
            14 => vec![GStore(a)],
            15 | 16 => vec![Add],
            17 => vec![Sub],
            18 => vec![Mul],
            19 => vec![Div],
            20 => vec![Mod],
            21 => vec![Neg],
            22 => vec![Eq],
            23 => vec![Ne],
            24 => vec![Lt],
            25 => vec![Le],
            26 => vec![Gt],
            27 => vec![Ge],
            28 => vec![And],
            29 => vec![Or],
            30 => vec![Not],
            31 => vec![Concat],
            32 => vec![Jump(b as u32)],
            33 => vec![JumpIfFalse(b as u32)],
            34 => vec![ListNew],
            35 => vec![ListPush],
            36 => vec![ListGet],
            37 => vec![ListLen],
            38 => vec![Invoke(a, b, (v as u8) % 3)],
            39 => vec![Param(a)],
            40 => vec![Emit(a)],
            41 => vec![Site],
            // Aliasing, then a push onto one alias: the other must not see it.
            42 => vec![Load(slot), PushConst(a), ListPush, Store(other)],
            43 => vec![Dup, PushInt(v % 4), ListPush, Swap],
            44 => vec![Load(slot), Load(slot), ListPush, Emit(b)],
            // A counted loop over a local, for the fuel budget to cut short.
            45 => vec![
                Load(slot),
                PushInt(1),
                Sub,
                Dup,
                Store(slot),
                JumpIfFalse(u32::MAX),
                Jump(u32::MAX - 6),
            ],
            46 => vec![Halt],
            _ => vec![Fail(a)],
        }
    }

    /// One well-typed step, given locals 0, 1 and 2 hold a list, a string
    /// and an int: it leaves the stack as it found it and mostly runs without
    /// trapping, so these programs reach deep into their code.
    fn idiom(op: u8, a: u16, b: u16, v: i64) -> Vec<Instr> {
        use Instr::*;
        let (slot, other) = (pick_slot(a), pick_slot(b));
        let small = v % 4;
        let compare = [Lt, Le, Gt, Ge][b as usize % 4];
        match op % 16 {
            // Alias local 0 on the stack, push onto one copy, emit both.
            0 => vec![Load(0), Dup, PushConst(a), ListPush, Emit(b), Emit(a)],
            // Alias it through another local, push there, read local 0 back.
            1 => vec![
                Load(0),
                Store(other),
                Load(other),
                PushInt(small),
                ListPush,
                Store(other),
                Load(0),
                Emit(b),
            ],
            2 => vec![Load(0), PushConst(a), ListPush, Store(0)],
            // A list that contains (a snapshot of) itself.
            3 => vec![Load(0), Load(0), ListPush, Store(0)],
            4 => vec![Load(1), PushConst(a), Add, Store(1)],
            5 => vec![PushConst(a), Load(slot), Concat, Emit(b)],
            6 => vec![Load(2), PushInt(v), [Add, Sub, Mul][a as usize % 3], Store(2)],
            7 => vec![Load(2), PushInt(small), [Div, Mod][a as usize % 2], Store(2)],
            8 => vec![PushConst(a), Load(slot), [Eq, Ne, And, Or][b as usize % 4], Emit(a)],
            9 => vec![Load(2), PushInt(small), compare, Emit(b)],
            10 => vec![Load(1), PushConst(a), compare, Emit(b)],
            11 => vec![GLoad(a), Emit(b), Load(slot), GStore(b)],
            12 => vec![
                Load(0),
                ListLen,
                Emit(a),
                Load(0),
                PushInt(small),
                ListGet,
                Store(other),
            ],
            13 => vec![Param(a), Store(other), Load(slot), Invoke(0, b % 2, 1), Emit(a)],
            14 => vec![Site, Load(1), Concat, Store(1)],
            _ => vec![
                Load(2),
                PushInt(1),
                Sub,
                Dup,
                Store(2),
                JumpIfFalse(u32::MAX),
                Jump(u32::MAX - 6),
            ],
        }
    }

    /// Resolve raw operands against the final pool and code: constants wrap
    /// into the pool, jumps wrap into `0..=len`, and the loop idiom's
    /// sentinel targets become "after the loop" and "back to its start".
    /// With `typed`, seven steps in eight are [`idiom`]s; otherwise every
    /// step is a raw [`step`].
    fn program(consts: Vec<Value>, steps: Vec<(u8, u16, u16, i64)>, typed: bool) -> Program {
        let consts: Vec<Value> = NAMES.iter().map(|n| Value::from(*n)).chain(consts).collect();
        let mut code = vec![
            Instr::ListNew,
            Instr::Store(0),
            Instr::PushConst(2),
            Instr::Store(1),
            Instr::PushInt(3),
            Instr::Store(2),
        ];
        // Straight-line stack depth; a step that would underflow is usually
        // preceded by enough [`operand`]s.
        let mut depth = 0usize;
        for (op, a, b, v) in steps {
            let body =
                if typed && op >= 32 { idiom(op, a, b, v) } else { step(op, a, b, v) };
            let (needs, _) = body.iter().fold((0usize, 0usize), |(needs, have), ins| {
                let (pops, pushes) = arity(ins);
                let short = pops.saturating_sub(have);
                (needs + short, have + short - pops + pushes)
            });
            if v % 16 != 0 {
                while depth < needs {
                    code.push(operand(&body[0], depth, a, b));
                    depth += 1;
                }
            }
            let base = code.len() as u32;
            for ins in body {
                let (pops, pushes) = arity(&ins);
                depth = depth.saturating_sub(pops) + pushes;
                code.push(match ins {
                    Instr::JumpIfFalse(u32::MAX) => Instr::JumpIfFalse(base + 7),
                    Instr::Jump(t) if t == u32::MAX - 6 => Instr::Jump(base),
                    other => other,
                });
            }
        }
        // Expose every local the generator touches, if execution gets here.
        for (k, slot) in SLOTS.into_iter().enumerate() {
            code.push(Instr::Load(slot));
            code.push(Instr::Emit(k as u16));
        }
        let nc = consts.len() as u16;
        let len = code.len() as u32;
        for ins in &mut code {
            *ins = match *ins {
                Instr::PushConst(i) => Instr::PushConst(i % nc),
                Instr::GLoad(i) => Instr::GLoad(i % nc),
                Instr::GStore(i) => Instr::GStore(i % nc),
                Instr::Param(i) => Instr::Param(i % nc),
                Instr::Emit(i) => Instr::Emit(i % nc),
                Instr::Fail(i) => Instr::Fail(i % nc),
                Instr::Invoke(s, o, n) => Instr::Invoke(s % nc, o % nc, n),
                Instr::Jump(t) => Instr::Jump(t % (len + 1)),
                Instr::JumpIfFalse(t) => Instr::JumpIfFalse(t % (len + 1)),
                other => other,
            };
        }
        let program = Program { name: "diff".into(), consts, code };
        program.validate().expect("generated program validates");
        program
    }

    fn host() -> MapHost {
        let mut host = MapHost::new("site-7");
        host.set_param("p", Value::List(vec![Value::Int(1), Value::Str("x".into())]));
        host.set_param("a", Value::Str("ab".into()));
        host.set_param("1", Value::Int(7));
        host.set_service("svc", "op", Value::List(vec![Value::Nil, Value::Bool(true)]));
        host.set_service("svc", "svc", Value::Str("svc-result".into()));
        host.set_service("a", "b", Value::Int(-3));
        host
    }

    fn state() -> AgentState {
        let mut state = AgentState { instructions: 11, ..Default::default() };
        state.globals.insert("g".into(), Value::Int(1));
        state.globals.insert("a".into(), Value::List(vec![Value::Str("a".into())]));
        state
    }

    /// Both interpreters on `program` from the same host and state: the same
    /// outcome, state bytes, emitted pairs and instruction count.
    fn same_run(program: &Program, fuel: u64) -> Result<(), String> {
        let (mut want_host, mut want_state) = (host(), state());
        let want = run(program, &mut want_state, &mut want_host, fuel);
        let (mut got_host, mut got_state) = (host(), state());
        let got = fast::run(program, &mut got_state, &mut got_host, fuel);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_state.instructions, want_state.instructions);
        prop_assert_eq!(got_state.to_bytes(), want_state.to_bytes());
        prop_assert_eq!(got_host.all_emitted(), want_host.all_emitted());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn run_matches_oracle_on_random_programs(
            consts in pvec(value(), 0..6),
            steps in pvec((any::<u8>(), any::<u16>(), any::<u16>(), any::<i64>()), 1..40),
            fuel in prop_oneof![0u64..24, 24u64..400, Just(100_000u64)],
        ) {
            same_run(&program(consts, steps, false), fuel)?;
        }

        #[test]
        fn run_matches_oracle_on_well_typed_programs(
            consts in pvec(value(), 0..6),
            steps in pvec((any::<u8>(), any::<u16>(), any::<u16>(), any::<i64>()), 1..40),
            fuel in prop_oneof![0u64..24, 24u64..400, Just(100_000u64)],
        ) {
            same_run(&program(consts, steps, true), fuel)?;
        }
    }

    #[test]
    fn run_matches_oracle_at_every_fuel_cut() {
        let program = crate::asm::assemble(
            r#"
            push 0
            store 0
        top:
            load 0
            push 5
            lt
            jmpf done
            gload "g"
            load 0
            add
            gstore "g"
            load 0
            emit "i"
            load 0
            push 1
            add
            store 0
            jmp top
        done:
            halt
        "#,
        )
        .unwrap();
        for fuel in 0..=100 {
            same_run(&program, fuel).unwrap();
        }
    }
}
