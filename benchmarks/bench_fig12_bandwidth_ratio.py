"""Figure 12 — Tdata vs the bandwidth ratio r = σS/(σS+σD).

Regenerates the paper's Fig. 12(a–f): all six algorithms under the
IDEAL setting across the bandwidth range, for every cache
configuration.  Tradeoff re-plans (α, β) at each point and must track
the lower envelope of Shared Opt. / Distributed Opt., meeting each of
them at the corresponding extreme.
"""

from benchmarks.conftest import save_figure
from repro.experiments.figures import figure12


def bench_figure12(benchmark, ratio_order, out_dir):
    # ratio_sweep simulates each distinct schedule once, so the figure
    # takes seconds and five rounds give the regression gate a median
    # instead of a single sample.
    fig = benchmark.pedantic(
        figure12, kwargs={"order": ratio_order}, rounds=5, iterations=1
    )
    save_figure(fig, out_dir)
    panel = fig.panels[0]  # q32 optimistic
    trade = panel.series["tradeoff IDEAL"]
    shared = panel.series["shared-opt IDEAL"]
    dist = panel.series["distributed-opt IDEAL"]
    # extremes: tie Shared Opt. at r->0, Distributed Opt. at r->1
    assert trade[0] <= 1.1 * shared[0]
    assert trade[-1] <= 1.001 * dist[-1]
    # the parents cross somewhere inside the sweep
    diffs = [s - d for s, d in zip(shared, dist)]
    assert min(diffs) < 0 < max(diffs)
