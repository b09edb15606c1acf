//! Mutual-exclusion benchmarks.
//!
//! The flag-based protocols (Peterson, Dekker, Lamport) are famously *not*
//! correct under RA without stronger fences: entry-protocol loads may read
//! stale flags, letting both roles into the critical section. The CAS
//! spinlock is the correct-under-RA contrast — timestamp adjacency makes
//! the lock acquisition atomic.
//!
//! Critical-section violations are detected with single-entry flags: role
//! `i` entering its (only) critical section sets `c_i := 1` and asserts
//! that it can read `c_j = 1` for the other role — since neither model
//! ever resets the flags, readability of `c_j = 1` exactly captures "the
//! other role has entered".

use crate::{Benchmark, Expected};
use parra_program::builder::{ProgramBuilder, SystemBuilder};
use parra_program::expr::Expr;
use parra_program::ident::VarId;

/// Appends the critical-section entry for role `me`: mark entry, then
/// (non-deterministically) observe the other role inside and fail.
fn critical_section(p: &mut ProgramBuilder, c_me: VarId, c_other: VarId) {
    let r = p.reg("rc");
    p.store(c_me, 1);
    p.choice(
        |p| {
            p.load(r, c_other);
            p.assume_eq(r, 1);
            p.assert_false();
        },
        |p| {
            p.skip();
        },
    );
}

/// `peterson-ra` (Lahav–Margalit): Peterson's algorithm, wait loops
/// remodelled as `load; assume`. Each `env` thread picks a role. Under RA
/// the flag handshake is broken: both roles can enter — **unsafe**.
pub fn peterson_ra() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let flag0 = b.var("flag0");
    let flag1 = b.var("flag1");
    let turn = b.var("turn");
    let c0 = b.var("c0");
    let c1 = b.var("c1");

    let mut p = b.program("peterson");
    let role = |p: &mut ProgramBuilder,
                my_flag: VarId,
                other_flag: VarId,
                my_turn: u32,
                c_me: VarId,
                c_other: VarId| {
        let r = p.reg("r");
        p.store(my_flag, 1);
        p.store(turn, 1 - my_turn);
        // await (other_flag == 0 || turn == my_turn)
        p.choice(
            move |p| {
                p.load(r, other_flag);
                p.assume_eq(r, 0);
            },
            move |p| {
                p.load(r, turn);
                p.assume(Expr::reg(r).eq(Expr::val(my_turn)));
            },
        );
        critical_section(p, c_me, c_other);
    };
    let r0 = p.block(|p| role(p, flag0, flag1, 0, c0, c1));
    let r1 = p.block(|p| role(p, flag1, flag0, 1, c1, c0));
    p.choice_of(vec![r0, r1]);
    let env = p.finish();
    Benchmark {
        name: "peterson-ra",
        source: "Lahav–Margalit, PLDI 2019 [34]",
        class_note: "env(nocas) — wait loops remodelled: env(nocas, acyc)",
        expected: Expected::Unsafe,
        system: b.build(env, vec![]),
    }
}

/// `peterson-ra-bratosz` (Norris model-checker benchmarks): Peterson
/// variant with a bounded retry of the entry protocol (unrolled once) —
/// still **unsafe** under RA.
pub fn peterson_ra_bratosz() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let flag0 = b.var("flag0");
    let flag1 = b.var("flag1");
    let turn = b.var("turn");
    let c0 = b.var("c0");
    let c1 = b.var("c1");

    let mut p = b.program("peterson_bratosz");
    let role = |p: &mut ProgramBuilder,
                my_flag: VarId,
                other_flag: VarId,
                my_turn: u32,
                c_me: VarId,
                c_other: VarId| {
        let r = p.reg("r");
        p.store(my_flag, 1);
        p.store(turn, 1 - my_turn);
        // One retry round, then the final await (bounded wait loop,
        // unrolled).
        for _ in 0..2 {
            p.choice(
                move |p| {
                    p.load(r, other_flag);
                    p.assume_eq(r, 0);
                },
                move |p| {
                    p.load(r, turn);
                    p.assume(Expr::reg(r).eq(Expr::val(my_turn)));
                },
            );
        }
        critical_section(p, c_me, c_other);
    };
    let r0 = p.block(|p| role(p, flag0, flag1, 0, c0, c1));
    let r1 = p.block(|p| role(p, flag1, flag0, 1, c1, c0));
    p.choice_of(vec![r0, r1]);
    let env = p.finish();
    Benchmark {
        name: "peterson-ra-bratosz",
        source: "Norris model-checker benchmarks [37]",
        class_note: "env(nocas) with wait loops — remodelled: env(nocas, acyc)",
        expected: Expected::Unsafe,
        system: b.build(env, vec![]),
    }
}

/// `dekker` (from `dekker-fences` \[37\], modelled fence-free — see the
/// crate docs): the first round of Dekker's entry protocol. Without the
/// SC fences of the original, RA lets both roles in — **unsafe**.
pub fn dekker() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let flag0 = b.var("flag0");
    let flag1 = b.var("flag1");
    let c0 = b.var("c0");
    let c1 = b.var("c1");

    let mut p = b.program("dekker");
    let role =
        |p: &mut ProgramBuilder, my_flag: VarId, other_flag: VarId, c_me: VarId, c_other: VarId| {
            let r = p.reg("r");
            p.store(my_flag, 1);
            p.load(r, other_flag);
            p.assume_eq(r, 0); // proceed straight into the CS
            critical_section(p, c_me, c_other);
        };
    let r0 = p.block(|p| role(p, flag0, flag1, c0, c1));
    let r1 = p.block(|p| role(p, flag1, flag0, c1, c0));
    p.choice_of(vec![r0, r1]);
    let env = p.finish();
    Benchmark {
        name: "dekker",
        source: "Norris model-checker benchmarks [37] (fences elided)",
        class_note: "env(nocas, acyc)",
        expected: Expected::Unsafe,
        system: b.build(env, vec![]),
    }
}

/// `lamport-2-ra` (Lahav–Margalit): Lamport's fast mutex, 2 roles. The
/// `x`/`y` handshake is broken under RA — **unsafe**.
pub fn lamport_2_ra() -> Benchmark {
    lamport(2, "lamport-2-ra")
}

/// `lamport-2-3-ra` (Lahav–Margalit): the 3-role variant — **unsafe**.
pub fn lamport_2_3_ra() -> Benchmark {
    lamport(3, "lamport-2-3-ra")
}

fn lamport(roles: u32, name: &'static str) -> Benchmark {
    // Lamport's fast mutex over registers x, y (role ids 1..=roles,
    // domain must hold them): entry: x := id; if y != 0 retry (here:
    // block); y := id; if x != id: check x... fast path modelled:
    //   x := id; y := id; r <- x; assume r == id; CS.
    let dom = roles + 2;
    let mut b = SystemBuilder::new(dom);
    let x = b.var("x");
    let y = b.var("y");
    let cs: Vec<VarId> = (1..=roles).map(|i| b.var(&format!("c{i}"))).collect();

    let mut p = b.program("lamport");
    let mut alts = Vec::new();
    for id in 1..=roles {
        let c_me = cs[(id - 1) as usize];
        let others: Vec<VarId> = (1..=roles)
            .filter(|&j| j != id)
            .map(|j| cs[(j - 1) as usize])
            .collect();
        let alt = p.block(|p| {
            let r = p.reg("r");
            let rc = p.reg("rc");
            p.store(x, id);
            p.load(r, y);
            p.assume_eq(r, 0);
            p.store(y, id);
            p.load(r, x);
            p.assume(Expr::reg(r).eq(Expr::val(id)));
            // critical section
            p.store(c_me, 1);
            let mut detect = Vec::new();
            for other in others {
                detect.push(p.block(|p| {
                    p.load(rc, other);
                    p.assume_eq(rc, 1);
                    p.assert_false();
                }));
            }
            detect.push(parra_program::stmt::Com::Skip);
            p.choice_of(detect);
        });
        alts.push(alt);
    }
    p.choice_of(alts);
    let env = p.finish();
    Benchmark {
        name,
        source: "Lahav–Margalit, PLDI 2019 [34]",
        class_note: "env(nocas)",
        expected: Expected::Unsafe,
        system: b.build(env, vec![]),
    }
}

/// A CAS spinlock: the correct-under-RA contrast. Lock acquisition is a
/// `cas(lock, 0, 1)` by distinguished threads; adjacency makes it atomic,
/// so the critical sections exclude each other — **safe**.
pub fn spinlock_cas() -> Benchmark {
    let mut b = SystemBuilder::new(2);
    let lock = b.var("lock");
    let c1 = b.var("c1");
    let c2 = b.var("c2");

    let env = {
        let mut p = b.program("observer");
        let r = p.reg("r");
        // Passive observers only read the lock.
        p.load(r, lock);
        p.finish()
    };
    let locker = |name: &str, c_me: VarId, c_other: VarId| {
        let mut p = b.program(name);
        let r = p.reg("r");
        p.cas(lock, 0, 1);
        p.store(c_me, 1);
        p.choice(
            |p| {
                p.load(r, c_other);
                p.assume_eq(r, 1);
                p.assert_false();
            },
            |p| {
                p.skip();
            },
        );
        p.finish()
    };
    let d1 = locker("locker1", c1, c2);
    let d2 = locker("locker2", c2, c1);
    Benchmark {
        name: "spinlock-cas",
        source: "folklore (contrast benchmark)",
        class_note: "env(nocas, acyc) ‖ dis1(acyc) ‖ dis2(acyc)",
        expected: Expected::Safe,
        system: b.build(env, vec![d1, d2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parra_program::classify::SystemClass;

    #[test]
    fn mutex_benchmarks_classify() {
        for bench in [
            peterson_ra(),
            peterson_ra_bratosz(),
            dekker(),
            lamport_2_ra(),
            lamport_2_3_ra(),
            spinlock_cas(),
        ] {
            let class = SystemClass::of(&bench.system);
            assert!(class.env.nocas, "{}", bench.name);
            assert!(class.env.acyc, "{}", bench.name);
            assert!(class.is_decidable_fragment(), "{}", bench.name);
        }
    }

    #[test]
    fn spinlock_uses_cas_in_dis_only() {
        let b = spinlock_cas();
        assert!(b.system.env.cfa().is_cas_free());
        assert!(b.system.dis.iter().all(|d| !d.cfa().is_cas_free()));
    }

    #[test]
    fn lamport_role_counts() {
        assert!(lamport_2_3_ra().system.n_vars() > lamport_2_ra().system.n_vars());
    }
}
