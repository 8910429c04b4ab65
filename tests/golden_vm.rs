//! Golden digests of what the agent VM computes, pinned across commits.
//!
//! The VM's unit tests compare the interpreter with a reference interpreter
//! kept beside it, so a change that shifts both at once passes them. These
//! constants pin the observable results themselves: for every example agent
//! run over a fixed itinerary of real service agents, an FNV-1a hash of
//!
//! * the `Debug` form of each hop's [`Outcome`],
//! * the migrating [`AgentState`] bytes after each hop (globals and the
//!   running instruction count), and
//! * each emitted key followed by the binary encoding of its value.
//!
//! The MAS ships those state bytes between sites and the gateway turns the
//! emitted values into result documents, so none of them may move.
//!
//! If a change is *meant* to alter what an agent computes, update the
//! constants and say why in the commit message.

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::food::{food_params, food_program};
use pdagent_apps::mcommerce::{order_params, order_program, quote_params, quote_program};
use pdagent_apps::news::{news_params, news_program};
use pdagent_apps::workflow::{workflow_params, workflow_program};
use pdagent_apps::{
    ApprovalService, BankService, FoodService, NewsService, ShopService, Transaction,
};
use pdagent_mas::Service;
use pdagent_vm::{run, AgentState, Host, Outcome, Program, Value};

/// Per-hop fuel, as the gateway grants by default.
const FUEL: u64 = 1_000_000;

/// `[outcomes, state bytes, emitted values]` per case, recorded with the
/// interpreter that deep-copied values on every `load`.
const GOLDEN: [(&str, [u64; 3]); 6] = [
    (
        "ebank_32tx_8sites",
        [0x011f_7f6e_2368_432d, 0xeb0e_50a9_8d49_9688, 0x55e6_3e00_365c_51e8],
    ),
    (
        "food",
        [0x1ae0_2979_2e4c_9bc0, 0x56d9_441d_f3ed_8363, 0xab22_675a_8dff_caff],
    ),
    (
        "news",
        [0x860b_b5e4_0683_3a67, 0x6782_8b55_7a09_63df, 0xa6d5_5b1d_8252_ba88],
    ),
    (
        "mcommerce_quote",
        [0xc93d_5547_faf7_1e69, 0x3efa_42e0_2ac4_fc0f, 0xd041_8442_1549_91d8],
    ),
    (
        "mcommerce_order",
        [0x5033_dab8_c17f_05f2, 0x0821_8a07_b4dd_0020, 0x4b30_6847_eead_3ff4],
    ),
    (
        "workflow",
        [0x860b_b5e4_0683_3a67, 0xc23f_718b_c097_230d, 0x89a5_5e71_3de8_35e1],
    ),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One MAS site: a named service plus the reflective `agent` operations the
/// MAS itself answers.
struct Site {
    name: String,
    service: &'static str,
    svc: Box<dyn Service>,
    params: Vec<(String, Value)>,
    emitted: Vec<(String, Value)>,
    hops_done: usize,
    hops_total: usize,
    abort: bool,
}

impl Host for Site {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        match (service, op) {
            ("agent", "abort") => {
                self.abort = true;
                Ok(Value::Bool(true))
            }
            ("agent", "hops_done") => Ok(Value::Int(self.hops_done as i64)),
            ("agent", "hops_total") => Ok(Value::Int(self.hops_total as i64)),
            (s, op) if s == self.service => self.svc.invoke(op, args),
            (s, _) => Err(format!("site {} has no service {s:?}", self.name)),
        }
    }

    fn param(&self, name: &str) -> Option<Value> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    fn emit(&mut self, key: &str, value: Value) {
        self.emitted.push((key.to_owned(), value));
    }

    fn site_name(&self) -> &str {
        &self.name
    }
}

/// Run `program` over `sites` in order, as a MAS itinerary would: one shared
/// migrating state, stopping after a hop that did not complete or asked to
/// abort. Returns the three digests.
fn tour(
    program: &Program,
    service: &'static str,
    params: Vec<(String, Value)>,
    sites: Vec<(String, Box<dyn Service>)>,
) -> [u64; 3] {
    let (mut outcomes, mut states, mut emitted) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut state = AgentState::default();
    let hops_total = sites.len();
    for (hops_done, (name, svc)) in sites.into_iter().enumerate() {
        let mut host = Site {
            name,
            service,
            svc,
            params: params.clone(),
            emitted: Vec::new(),
            hops_done,
            hops_total,
            abort: false,
        };
        let outcome = run(program, &mut state, &mut host, FUEL);
        outcomes.write(format!("{outcome:?}").as_bytes());
        states.write(&state.to_bytes());
        for (key, value) in &host.emitted {
            emitted.write(key.as_bytes());
            let mut bytes = Vec::new();
            value.encode(&mut bytes);
            emitted.write(&bytes);
        }
        if outcome != Outcome::Completed || host.abort {
            break;
        }
    }
    [outcomes.0, states.0, emitted.0]
}

/// The `roaming` shape: 32 transactions round-robin over 8 banks. Every
/// fifth bank is short of funds, so the decline path runs too.
fn ebank() -> [u64; 3] {
    let txs: Vec<Transaction> = (0..32)
        .map(|i| {
            let amount = 100 + (i as i64 * 7_919) % 4_900;
            Transaction::new(format!("bank-{}", i % 8), "alice", format!("payee-{i}"), amount)
        })
        .collect();
    let sites = itinerary_for(&txs)
        .into_iter()
        .enumerate()
        .map(|(k, site)| {
            let balance = if k % 5 == 4 { 3_000 } else { 10_000_000 };
            let bank = BankService::new(site.clone()).with_account("alice", balance);
            (site, Box::new(bank) as Box<dyn Service>)
        })
        .collect();
    tour(&ebank_program(), "bank", vec![transactions_param(&txs)], sites)
}

fn food() -> [u64; 3] {
    let east = FoodService::new()
        .with("Golden Wok", "dimsum", 8_000, "Hung Hom")
        .with("Jade Palace", "dimsum", 20_000, "Central")
        .with("Pasta Bar", "italian", 9_000, "TST");
    let west = FoodService::new()
        .with("Harbour Dim Sum", "dimsum", 6_500, "Sai Wan")
        .with("Noodle Lab", "noodles", 4_000, "Kennedy Town");
    let sites: Vec<(String, Box<dyn Service>)> = vec![
        ("dir-east".into(), Box::new(east)),
        ("dir-west".into(), Box::new(west)),
        ("dir-empty".into(), Box::new(FoodService::new())),
    ];
    tour(&food_program(), "food", food_params("dimsum", 10_000), sites)
}

/// Three stories are wanted and the first two sites supply them, so the
/// agent aborts before the third.
fn news() -> [u64; 3] {
    let sites: Vec<(String, Box<dyn Service>)> = vec![
        (
            "wire-a".into(),
            Box::new(
                NewsService::new()
                    .with("Rates hold", "finance", 2)
                    .with("Storm warning", "weather", 1)
                    .with("Old ledger found", "finance", 90),
            ),
        ),
        (
            "wire-b".into(),
            Box::new(
                NewsService::new()
                    .with("Bank merger", "finance", 5)
                    .with("Bond rally", "finance", 8)
                    .with("Fintech IPO", "finance", 12),
            ),
        ),
        ("wire-c".into(), Box::new(NewsService::new().with("Never read", "finance", 1))),
    ];
    tour(&news_program(), "news", news_params("finance", 24, 3), sites)
}

fn shops() -> Vec<(String, Box<dyn Service>)> {
    vec![
        ("shop-a".into(), Box::new(ShopService::new("shop-a").with_item("pda", 42_000, 3))),
        ("shop-b".into(), Box::new(ShopService::new("shop-b").with_item("pda", 39_500, 1))),
        ("shop-c".into(), Box::new(ShopService::new("shop-c").with_item("phone", 9_900, 5))),
        ("shop-d".into(), Box::new(ShopService::new("shop-d").with_item("pda", 40_000, 0))),
    ]
}

fn mcommerce_quote() -> [u64; 3] {
    tour(&quote_program(), "shop", quote_params("pda"), shops())
}

/// The order phase at the quote winner, with a budget that covers it.
fn mcommerce_order() -> [u64; 3] {
    let winner = shops().into_iter().filter(|(name, _)| name == "shop-b").collect();
    tour(&order_program(), "shop", order_params("pda", 40_000), winner)
}

/// The second approver rejects the amount, which ends the chain early.
fn workflow() -> [u64; 3] {
    let sites: Vec<(String, Box<dyn Service>)> = vec![
        ("team-lead".into(), Box::new(ApprovalService::new("lead", 500_000))),
        ("finance".into(), Box::new(ApprovalService::new("cfo-office", 100_000))),
        ("ceo".into(), Box::new(ApprovalService::new("ceo", 10_000_000))),
    ];
    tour(&workflow_program(), "approval", workflow_params(250_000, "dana"), sites)
}

#[test]
fn vm_results_match_golden_digests() {
    let got = [
        ("ebank_32tx_8sites", ebank()),
        ("food", food()),
        ("news", news()),
        ("mcommerce_quote", mcommerce_quote()),
        ("mcommerce_order", mcommerce_order()),
        ("workflow", workflow()),
    ];
    let mut drift = Vec::new();
    for ((name, digests), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        if *digests != golden {
            let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
            drift.push(format!("    (\"{name}\", [{}]),", hex.join(", ")));
        }
    }
    assert!(drift.is_empty(), "VM results drifted; got:\n{}", drift.join("\n"));
}
