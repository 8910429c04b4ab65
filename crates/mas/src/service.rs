//! Site services — the paper's "Service Agents".
//!
//! In the e-banking application "there is a Mobile Agent Server (MAS) with a
//! Service Agent within each bank. When the client's agent arrived at each
//! bank, it will execute the transaction by communicating with the Service
//! Agent." A [`Service`] is that stationary counterpart: a named object
//! registered at a MAS that visiting agents invoke operations on.

use pdagent_vm::Value;

/// A stationary service agent at a site.
///
/// `Send` because services live inside simulator nodes, which are `Send`
/// so that whole simulators can move between threads.
pub trait Service: Send {
    /// Handle `op(args…)`, returning a value to the visiting agent or an
    /// error string (which traps the agent's VM and aborts its itinerary).
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, String>;
}

/// A service that echoes its inputs: `echo(op, args) = "op(arg1,arg2,…)"`.
/// Useful in tests and as a liveness probe.
#[derive(Debug, Default)]
pub struct EchoService;

impl Service for EchoService {
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, String> {
        let rendered: Vec<String> = args.iter().map(Value::render).collect();
        Ok(Value::Str(format!("{op}({})", rendered.join(","))))
    }
}

/// A small key-value store service: `put(key, value)`, `get(key)`,
/// `delete(key)`, `len()`. The food-search example uses one per restaurant
/// directory site.
#[derive(Debug, Default)]
pub struct KvService {
    entries: std::collections::BTreeMap<String, Value>,
}

impl KvService {
    /// Empty store.
    pub fn new() -> KvService {
        KvService::default()
    }

    /// Pre-populate an entry (builder style).
    pub fn with(mut self, key: impl Into<String>, value: Value) -> KvService {
        self.entries.insert(key.into(), value);
        self
    }
}

impl Service for KvService {
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, String> {
        let key_arg = |i: usize| -> Result<String, String> {
            args.get(i)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| format!("kv.{op}: argument {i} must be a string key"))
        };
        match op {
            "put" => {
                let key = key_arg(0)?;
                let value =
                    args.get(1).cloned().ok_or_else(|| "kv.put: missing value".to_owned())?;
                self.entries.insert(key, value);
                Ok(Value::Bool(true))
            }
            "get" => {
                let key = key_arg(0)?;
                Ok(self.entries.get(&key).cloned().unwrap_or(Value::Nil))
            }
            "delete" => {
                let key = key_arg(0)?;
                Ok(Value::Bool(self.entries.remove(&key).is_some()))
            }
            "len" => Ok(Value::Int(self.entries.len() as i64)),
            "keys" => Ok(Value::List(
                self.entries.keys().map(|k| Value::Str(k.clone())).collect(),
            )),
            other => Err(format!("kv: unknown operation {other:?}")),
        }
    }
}

/// A mailbox service, after the mailbox-based mobile-agent communication
/// scheme of Cao et al. (the paper's reference \[1\]): agents address each
/// other by name through stationary per-site mailboxes instead of chasing
/// each other across the network.
///
/// Operations: `send(to, message)` → true; `recv(me)` → list of pending
/// messages for `me` (drained); `peek(me)` → count without draining.
#[derive(Debug, Default)]
pub struct MailboxService {
    boxes: std::collections::BTreeMap<String, Vec<Value>>,
}

impl MailboxService {
    /// Empty mailbox rack.
    pub fn new() -> MailboxService {
        MailboxService::default()
    }
}

impl Service for MailboxService {
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, String> {
        let name_arg = |i: usize| -> Result<String, String> {
            args.get(i)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("mailbox.{op}: argument {i} must be a name"))
        };
        match op {
            "send" => {
                let to = name_arg(0)?;
                let msg = args
                    .get(1)
                    .cloned()
                    .ok_or_else(|| "mailbox.send: missing message".to_owned())?;
                self.boxes.entry(to).or_default().push(msg);
                Ok(Value::Bool(true))
            }
            "recv" => {
                let me = name_arg(0)?;
                Ok(Value::List(self.boxes.remove(&me).unwrap_or_default()))
            }
            "peek" => {
                let me = name_arg(0)?;
                Ok(Value::Int(
                    self.boxes.get(&me).map(|v| v.len() as i64).unwrap_or(0),
                ))
            }
            other => Err(format!("mailbox: unknown operation {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_renders_call() {
        let mut svc = EchoService;
        let out = svc
            .invoke("greet", &[Value::Str("alice".into()), Value::Int(3)])
            .unwrap();
        assert_eq!(out, Value::Str("greet(alice,3)".into()));
    }

    #[test]
    fn kv_put_get_delete() {
        let mut kv = KvService::new();
        assert_eq!(
            kv.invoke("put", &[Value::Str("k".into()), Value::Int(1)]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(kv.invoke("get", &[Value::Str("k".into())]).unwrap(), Value::Int(1));
        assert_eq!(kv.invoke("len", &[]).unwrap(), Value::Int(1));
        assert_eq!(
            kv.invoke("delete", &[Value::Str("k".into())]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(kv.invoke("get", &[Value::Str("k".into())]).unwrap(), Value::Nil);
        assert_eq!(
            kv.invoke("delete", &[Value::Str("k".into())]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn kv_keys_sorted() {
        let mut kv = KvService::new().with("b", Value::Int(2)).with("a", Value::Int(1));
        assert_eq!(
            kv.invoke("keys", &[]).unwrap(),
            Value::List(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
    }

    #[test]
    fn mailbox_send_recv_peek() {
        let mut mb = MailboxService::new();
        mb.invoke("send", &[Value::Str("ag-2".into()), Value::Str("partial".into())])
            .unwrap();
        mb.invoke("send", &[Value::Str("ag-2".into()), Value::Int(42)]).unwrap();
        assert_eq!(mb.invoke("peek", &[Value::Str("ag-2".into())]).unwrap(), Value::Int(2));
        assert_eq!(mb.invoke("peek", &[Value::Str("ag-9".into())]).unwrap(), Value::Int(0));
        let got = mb.invoke("recv", &[Value::Str("ag-2".into())]).unwrap();
        assert_eq!(
            got,
            Value::List(vec![Value::Str("partial".into()), Value::Int(42)])
        );
        // Drained.
        assert_eq!(
            mb.invoke("recv", &[Value::Str("ag-2".into())]).unwrap(),
            Value::List(vec![])
        );
        assert!(mb.invoke("send", &[Value::Str("x".into())]).is_err());
        assert!(mb.invoke("burn", &[]).is_err());
    }

    #[test]
    fn kv_errors() {
        let mut kv = KvService::new();
        assert!(kv.invoke("get", &[]).is_err());
        assert!(kv.invoke("get", &[Value::Int(3)]).is_err());
        assert!(kv.invoke("put", &[Value::Str("k".into())]).is_err());
        assert!(kv.invoke("explode", &[]).is_err());
    }
}
