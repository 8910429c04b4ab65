//! Golden digests of the `PDAZ` codec's output bytes, pinned across commits.
//!
//! The codec's unit tests compare the production coder with a bit-at-a-time
//! oracle kept beside it, so a change that shifts both at once passes them.
//! These constants pin the wire bytes themselves: an FNV-1a hash of the
//! container produced by every [`Algorithm`] on a fixed corpus shaped like
//! the platform's real traffic. Device databases, PIs in flight and result
//! documents all carry these bytes, so they must not move.
//!
//! If a change is *meant* to alter the wire format, update the constants and
//! say why in the commit message.

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::Transaction;
use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_core::Subscription;
use pdagent_crypto::rsa::PublicKey;
use pdagent_gateway::pi::{PackedInformation, ResultDoc, ResultStatus};
use pdagent_mas::ResultEntry;
use pdagent_vm::Value;

/// Every algorithm, in the column order of the golden rows.
const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Auto,
    Algorithm::Store,
    Algorithm::Rle,
    Algorithm::Lzss,
    Algorithm::Huffman,
    Algorithm::LzssHuffman,
];

/// Digests recorded with the bit-at-a-time codec, before the word-level bit
/// I/O and table-driven Huffman decoder replaced it. `pi_8k_base64_pad`, the
/// lossy workload's PI shape, was recorded later, before the LZSS dead-end
/// filter and the three-codes-per-load Huffman decoder. The handheld's
/// documents (`subscription_download`, `subscription_record_doc`,
/// `result_roaming_40`) were recorded before `Auto` began ranking its
/// candidates by entropy bounds. One row per corpus entry, one column per
/// entry of [`ALGORITHMS`].
const GOLDEN: [(&str, [u64; 6]); 9] = [
    (
        "pi_48k_base64_pad",
        [
            0x9b65_7672_0986_a2df, 0x92ac_2e40_ab9c_214a, 0x92ac_2e40_ab9c_214a,
            0x92ac_2e40_ab9c_214a, 0x9b65_7672_0986_a2df, 0x92ac_2e40_ab9c_214a,
        ],
    ),
    (
        "roaming_pi_1k",
        [
            0xfe39_2c93_0ef3_76ce, 0xe502_bd78_7406_3bf4, 0xe502_bd78_7406_3bf4,
            0xfe39_2c93_0ef3_76ce, 0xb050_269e_998f_7c4d, 0x543e_9be9_d1df_6d02,
        ],
    ),
    (
        "ebank_program_xml",
        [
            0x6b94_04fb_e544_49ed, 0x69c4_aaa7_77de_2af9, 0x69c4_aaa7_77de_2af9,
            0x6b94_04fb_e544_49ed, 0xaa7a_445c_c6dd_9126, 0x3b63_26f8_00e5_9ea5,
        ],
    ),
    (
        "zeros_4k",
        [
            0x1da0_6cb6_4ebf_0495, 0xe687_162f_d07a_fbca, 0x1da0_6cb6_4ebf_0495,
            0xa814_d390_7ab0_055e, 0x6be0_ebd1_865e_7fcf, 0x85d3_bfb4_56a3_9293,
        ],
    ),
    (
        "pi_8k_base64_pad",
        [
            0x9296_ead3_9748_ddbc, 0x908d_6043_7534_d522, 0x908d_6043_7534_d522,
            0xd370_227b_cba1_655b, 0x9296_ead3_9748_ddbc, 0x4c9c_c942_c4dd_4e61,
        ],
    ),
    (
        "byte_cycle",
        [
            0x5692_43f0_d7ae_e780, 0xcb5f_c216_2fe9_dbca, 0xcb5f_c216_2fe9_dbca,
            0xc20c_5b94_563a_9753, 0xcb5f_c216_2fe9_dbca, 0x5692_43f0_d7ae_e780,
        ],
    ),
    (
        "subscription_download",
        [
            0x39a0_c8d5_8ea3_4e42, 0x9df2_bd6a_d585_da23, 0x9df2_bd6a_d585_da23,
            0x39a0_c8d5_8ea3_4e42, 0x731e_2ea0_7333_9fac, 0x69d8_9aca_02fc_0717,
        ],
    ),
    (
        "subscription_record_doc",
        [
            0x2d2b_addb_f4d3_9bc8, 0x22f6_5eec_b047_bd62, 0x22f6_5eec_b047_bd62,
            0x2d2b_addb_f4d3_9bc8, 0xc765_2102_7750_fe82, 0x5e2a_2cbd_ab70_4f5b,
        ],
    ),
    (
        "result_roaming_40",
        [
            0x9ad0_e874_4789_4a2e, 0xb3e2_9eaf_3c3d_f4e9, 0xb3e2_9eaf_3c3d_f4e9,
            0x9ad0_e874_4789_4a2e, 0x2028_158f_5a5a_0af0, 0x407f_fae7_1055_c6f0,
        ],
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Six bits of entropy per byte over the base64 alphabet (xorshift64*), the
/// shape of the bulk "personal information" a PI carries.
fn pad_text(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ALPHABET[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 58) as usize] as char
        })
        .collect()
}

/// An e-bank PI document with `transactions` spread over `banks` sites and
/// `pad` bytes of base64 padding.
fn pi_document(transactions: usize, banks: usize, pad: usize, seed: u64) -> Vec<u8> {
    let txs: Vec<Transaction> = (0..transactions)
        .map(|i| {
            let bank = format!("bank-{}", i % banks);
            Transaction::new(bank, "alice", format!("payee-{i}"), 100 + i as i64)
        })
        .collect();
    let pi = PackedInformation {
        code_id: "ebank@device-0#1".into(),
        auth_key: "0123456789abcdef0123456789abcdef".into(),
        program: ebank_program(),
        itinerary: itinerary_for(&txs),
        params: vec![
            transactions_param(&txs),
            ("pi_pad".into(), Value::Str(pad_text(pad, seed))),
        ],
        fuel_per_hop: 1_000_000,
    };
    pi.to_document_string().into_bytes()
}

fn subscription() -> Subscription {
    Subscription {
        service: "ebank".into(),
        code_id: "ebank@dev3#12".into(),
        secret: "5f2b&<secret>".into(),
        gateway: "gw-0".into(),
        public_key: PublicKey { n: 0xdead_beef_cafe_f00d, e: 65537 },
        program: ebank_program(),
    }
}

/// What a 32-transaction roaming agent brings home: a receipt per
/// transaction and a settlement list per bank.
fn roaming_result() -> ResultDoc {
    let receipts = (0..32).map(|i| ResultEntry {
        site: format!("bank-{}", i % 8),
        key: "receipt".into(),
        value: Value::Str(format!("rcpt-bank-{}-{i}: alice->payee-{i} {}", i % 8, 100 + i)),
    });
    let settled = (0..8).map(|b| ResultEntry {
        site: format!("bank-{b}"),
        key: "settled".into(),
        value: Value::List(vec![Value::Str(format!("bank-{b}")), Value::Int(400 + b)]),
    });
    ResultDoc {
        agent_id: "ag-17@gw-0".into(),
        status: ResultStatus::Completed,
        entries: receipts.chain(settled).collect(),
        instructions: 25_660,
    }
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("pi_48k_base64_pad", pi_document(1, 2, 48 * 1024, 42)),
        ("roaming_pi_1k", pi_document(32, 8, 1024, 7)),
        ("ebank_program_xml", ebank_program().to_document_string().into_bytes()),
        ("zeros_4k", vec![0u8; 4096]),
        ("pi_8k_base64_pad", pi_document(1, 2, 8 * 1024, 310)),
        ("byte_cycle", (0..=255u8).cycle().take(4096).collect()),
        ("subscription_download", subscription().download_document().into_bytes()),
        ("subscription_record_doc", decompress(&subscription().to_record()).unwrap()),
        ("result_roaming_40", roaming_result().to_document_string().into_bytes()),
    ]
}

#[test]
fn codec_output_matches_golden_digests() {
    let mut drift = Vec::new();
    for ((name, input), (golden_name, golden)) in corpus().iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        let got: Vec<u64> = ALGORITHMS
            .iter()
            .map(|&alg| {
                let packed = compress(input, alg);
                assert_eq!(&decompress(&packed).unwrap(), input, "{name} {alg:?} roundtrip");
                fnv1a(&packed)
            })
            .collect();
        if got != golden {
            drift.push(format!("    (\"{name}\", [{}]),", render(&got)));
        }
    }
    assert!(drift.is_empty(), "codec output drifted; got:\n{}", drift.join("\n"));
}

fn render(digests: &[u64]) -> String {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    hex.join(", ")
}
