//! E7 — §4.3: the applicative symbol table.
//!
//! Comparison of the three environment representations: the cons-list ("a
//! tree in which each node has only one child"), the applicative balanced
//! tree (the Myers-style efficient applicative data structure the paper
//! points at), and a conventional mutable hash table that must be *cloned*
//! per binding to preserve old versions — the cost a non-applicative
//! compiler pays for the VIF's retained environments.
//!
//! Timed with the in-repo `ag-harness` runner; results land in
//! `results/exp_env.json`.

use ag_harness::bench::{fmt_ns, Runner};
use ag_intern::Symbol;
use std::hint::black_box;
use std::rc::Rc;
use vhdl_sem::env::{Den, Env, EnvKind};
use vhdl_vif::VifNode;

const KINDS: [(&str, EnvKind); 3] = [
    ("list", EnvKind::List),
    ("tree", EnvKind::Tree),
    ("mut-clone", EnvKind::MutBaseline),
];

fn build_env(kind: EnvKind, n: usize) -> Env {
    let mut e = Env::new(kind);
    for i in 0..n {
        let node = VifNode::build("obj")
            .name(format!("name{i}").as_str())
            .done();
        e = e.bind(format!("name{i}"), Den::local(node));
    }
    e
}

fn main() {
    println!("# E7 — applicative symbol table (paper §4.3)");
    println!();
    let mut r = Runner::new("exp_env")
        .iters(10)
        .out_dir(ag_bench::out_dir());

    // Cost of n successive bindings.
    for n in [16usize, 128, 1024] {
        for (label, kind) in KINDS {
            let s = r.measure(format!("bind/{label}/{n}"), || {
                black_box(build_env(kind, n))
            });
            println!(
                "bind      {label:<9} n={n:<5} median {}",
                fmt_ns(s.median_ns)
            );
        }
    }

    // Lookup across a populated environment.
    for n in [16usize, 128, 1024] {
        for (label, kind) in KINDS {
            let env = build_env(kind, n);
            let probe: Vec<String> = (0..n)
                .step_by(7.max(n / 13))
                .map(|i| format!("name{i}"))
                .collect();
            let s = r.measure(format!("lookup/{label}/{n}"), || {
                for p in &probe {
                    black_box(env.lookup_one(p));
                }
            });
            println!(
                "lookup    {label:<9} n={n:<5} median {}",
                fmt_ns(s.median_ns)
            );
        }
    }

    // Snapshot + extend from a shared base — the pattern nested declarative
    // regions create constantly. Applicative structures make this O(1);
    // the mutable baseline pays a full copy.
    for (label, kind) in KINDS {
        let base = build_env(kind, 512);
        let extra = VifNode::build("obj").name("local").done();
        let s = r.measure(format!("snapshot_extend/{label}"), || {
            // Ten nested scopes, each extending the shared base.
            let mut scopes = Vec::new();
            for i in 0..10 {
                let e = base.bind(format!("local{i}"), Den::local(Rc::clone(&extra)));
                scopes.push(e);
            }
            black_box(scopes)
        });
        println!(
            "snapshot  {label:<9} n=512   median {}",
            fmt_ns(s.median_ns)
        );
    }

    // Interned vs string keys on the same treap shape: the `keycmp`
    // series isolates what the Symbol refactor bought — every descent
    // compares two u32s instead of running memcmp, and a bind allocates
    // no key. `StrEnv` below is the pre-refactor representation
    // (Rc<str> keys, FNV priorities over the bytes) kept as the
    // baseline.
    for n in [16usize, 128, 1024] {
        let step = 7.max(n / 13);

        let str_env = StrEnv::build(n);
        let str_probes: Vec<Rc<str>> = (0..n)
            .step_by(step)
            .map(|i| format!("some_longer_identifier_{i}").into())
            .collect();
        let s = r.measure(format!("keycmp/string/{n}"), || {
            for p in &str_probes {
                black_box(str_env.lookup(p));
            }
        });
        println!(
            "keycmp    {:<9} n={n:<5} median {}",
            "string",
            fmt_ns(s.median_ns)
        );

        let mut sym_env = Env::new(EnvKind::Tree);
        for i in 0..n {
            let name = Symbol::intern(&format!("some_longer_identifier_{i}"));
            sym_env = sym_env.bind(name, Den::local(VifNode::build("obj").name(name).done()));
        }
        let sym_probes: Vec<Symbol> = (0..n)
            .step_by(step)
            .map(|i| Symbol::intern(&format!("some_longer_identifier_{i}")))
            .collect();
        let s = r.measure(format!("keycmp/interned/{n}"), || {
            for p in &sym_probes {
                black_box(sym_env.lookup(*p));
            }
        });
        println!(
            "keycmp    {:<9} n={n:<5} median {}",
            "interned",
            fmt_ns(s.median_ns)
        );
    }

    println!();
    println!(
        "paper: the applicative table makes retained environments cheap; the mutable \
         baseline pays a full copy per snapshot"
    );
    r.finish();
}

// ---------------------------------------------------------------------------
// String-keyed treap: the pre-interning `Env` tree representation, kept
// verbatim as the `keycmp/string` baseline.

struct StrNode {
    name: Rc<str>,
    prio: u64,
    dens: Rc<Vec<Den>>,
    left: Option<Rc<StrNode>>,
    right: Option<Rc<StrNode>>,
}

struct StrEnv {
    root: Option<Rc<StrNode>>,
}

impl StrEnv {
    fn build(n: usize) -> StrEnv {
        let mut e = StrEnv { root: None };
        for i in 0..n {
            let name: Rc<str> = format!("some_longer_identifier_{i}").into();
            let den = Den::local(VifNode::build("obj").name(&*name).done());
            e.root = Some(str_insert(e.root.as_ref(), &name, den));
        }
        e
    }

    fn lookup(&self, name: &str) -> Vec<Den> {
        let mut cur = self.root.as_ref();
        let mut raw = Vec::new();
        while let Some(n) = cur {
            match name.cmp(&n.name) {
                std::cmp::Ordering::Equal => {
                    raw = (*n.dens).clone();
                    break;
                }
                std::cmp::Ordering::Less => cur = n.left.as_ref(),
                std::cmp::Ordering::Greater => cur = n.right.as_ref(),
            }
        }
        // Same homograph filter the real `Env::lookup` applies.
        let mut out: Vec<Den> = Vec::new();
        for den in raw {
            if den.overloadable() {
                out.push(den);
            } else {
                if out.is_empty() {
                    out.push(den);
                }
                break;
            }
        }
        out
    }
}

fn str_insert(root: Option<&Rc<StrNode>>, name: &Rc<str>, den: Den) -> Rc<StrNode> {
    match root {
        None => Rc::new(StrNode {
            name: Rc::clone(name),
            prio: str_prio(name),
            dens: Rc::new(vec![den]),
            left: None,
            right: None,
        }),
        Some(n) => match name.as_ref().cmp(&n.name) {
            std::cmp::Ordering::Equal => {
                let mut dens = (*n.dens).clone();
                dens.insert(0, den);
                Rc::new(StrNode {
                    dens: Rc::new(dens),
                    name: Rc::clone(&n.name),
                    prio: n.prio,
                    left: n.left.clone(),
                    right: n.right.clone(),
                })
            }
            std::cmp::Ordering::Less => str_rebalance(Rc::new(StrNode {
                left: Some(str_insert(n.left.as_ref(), name, den)),
                name: Rc::clone(&n.name),
                prio: n.prio,
                dens: Rc::clone(&n.dens),
                right: n.right.clone(),
            })),
            std::cmp::Ordering::Greater => str_rebalance(Rc::new(StrNode {
                right: Some(str_insert(n.right.as_ref(), name, den)),
                name: Rc::clone(&n.name),
                prio: n.prio,
                dens: Rc::clone(&n.dens),
                left: n.left.clone(),
            })),
        },
    }
}

fn str_rebalance(n: Rc<StrNode>) -> Rc<StrNode> {
    if let Some(l) = &n.left {
        if l.prio > n.prio {
            let new_right = Rc::new(StrNode {
                left: l.right.clone(),
                name: Rc::clone(&n.name),
                prio: n.prio,
                dens: Rc::clone(&n.dens),
                right: n.right.clone(),
            });
            return Rc::new(StrNode {
                right: Some(new_right),
                name: Rc::clone(&l.name),
                prio: l.prio,
                dens: Rc::clone(&l.dens),
                left: l.left.clone(),
            });
        }
    }
    if let Some(r) = &n.right {
        if r.prio > n.prio {
            let new_left = Rc::new(StrNode {
                right: r.left.clone(),
                name: Rc::clone(&n.name),
                prio: n.prio,
                dens: Rc::clone(&n.dens),
                left: n.left.clone(),
            });
            return Rc::new(StrNode {
                left: Some(new_left),
                name: Rc::clone(&r.name),
                prio: r.prio,
                dens: Rc::clone(&r.dens),
                right: r.right.clone(),
            });
        }
    }
    n
}

/// FNV-1a over the name bytes — what `prio_of` did before symbol ids.
fn str_prio(name: &str) -> u64 {
    ag_harness::fnv1a(0, name.as_bytes())
}
