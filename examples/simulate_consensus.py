#!/usr/bin/env python3
"""Run the executable protocols under fair random scheduling.

Measures the §II folklore numbers: with a strong common coin the
MMR14-family protocols decide in a small constant number of expected
rounds, independent of the adversary's (fair) delivery order and of
Byzantine equivocation.  Also demonstrates a run trace and an ε-Good
(biased) coin.

Run: ``python examples/simulate_consensus.py``
"""

from repro.sim import (
    ABY22Process,
    EquivocatingByzantine,
    Miller18Process,
    MMR14Process,
    RandomScheduler,
    Simulation,
    expected_rounds,
    run,
)

PROTOCOLS = (MMR14Process, Miller18Process, ABY22Process)


def one_trace() -> None:
    print("one MMR14 run (n=4, t=1, inputs 0,0,1, seed 3):")
    sim = Simulation(MMR14Process, n=4, t=1, inputs=[0, 0, 1], coin_seed=3)
    scheduler = RandomScheduler(seed=3)
    scheduler.byzantine = EquivocatingByzantine(list(sim.byzantine))
    result = run(sim, scheduler)
    print(f"  decisions:       {result.decided}")
    print(f"  decision rounds: {result.decision_rounds}")
    print(f"  agreement={result.agreement} validity={result.validity} "
          f"deliveries={result.steps}")
    for r in range(result.rounds_reached):
        if sim.coin.revealed(r):
            print(f"  coin[{r}] = {sim.coin.peek(r)} "
                  f"(first read by P{sim.coin.first_accessor(r)})")


def round_statistics() -> None:
    print("\nexpected decision rounds (25 seeded runs each):")
    print(f"  {'protocol':12s} {'mixed 0,0,1':>12s} {'uniform 1,1,1':>14s}")
    for cls in PROTOCOLS:
        mixed = expected_rounds(cls, 4, 1, [0, 0, 1], runs=25)
        uniform = expected_rounds(cls, 4, 1, [1, 1, 1], runs=25)
        print(f"  {cls.__name__:12s} {mixed:12.2f} {uniform:14.2f}")


def biased_coin() -> None:
    print("\nbiased coin biased:1/10 (ε-Good with ε = 1/10): termination "
          "still almost-sure, just slower on the unlucky side:")
    decided_rounds = []
    for seed in range(10):
        sim = Simulation(MMR14Process, n=4, t=1, inputs=[1, 1, 0],
                         coin_seed=seed, coin="biased:1/10")
        scheduler = RandomScheduler(seed=seed)
        scheduler.byzantine = EquivocatingByzantine(list(sim.byzantine))
        result = run(sim, scheduler, max_steps=100_000)
        if result.all_decided:
            decided_rounds.append(max(result.decision_rounds.values()) + 1)
    mean = sum(decided_rounds) / len(decided_rounds)
    print(f"  decided {len(decided_rounds)}/10 runs, "
          f"mean decision round {mean:.2f}")


def main() -> None:
    one_trace()
    round_statistics()
    biased_coin()


if __name__ == "__main__":
    main()
