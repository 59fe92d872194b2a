/**
 * @file
 * E6 (Fig. 5, ablation): how much of the error reduction comes from
 * each direction of the reciprocity. Compare, per application:
 *
 *   abstract  — static analytical model (no reciprocity),
 *   tuned     — abstract model re-tuned by a co-simulation's table
 *               (upward feedback only; detail discarded afterwards),
 *   cosim     — full reciprocal co-simulation.
 *
 * Both directions matter: tuning alone recovers part of the gap, the
 * live detailed model recovers most of it. A fourth column ablates
 * the feedback granularity: per-(src,dst)-pair estimators instead of
 * per-distance aggregates (extension; helps hotspot workloads most).
 */

#include <cstdio>

#include "bench_util.hh"
#include "workload/app_profiles.hh"

using namespace rasim;
using namespace benchutil;

int
main()
{
    printHeader("E6: reciprocity ablation — static vs tuned vs cosim "
                "(8x8)");
    printRow({"app", "abs_err", "tuned_err", "cosim_err", "pair_err"});

    double abs_sum = 0, tuned_sum = 0, cosim_sum = 0, pair_sum = 0;
    int apps = 0;
    for (const char *name : {"fft", "radix", "barnes", "ocean"}) {
        cosim::FullSystem mono(
            Config(), accuracyOptions(cosim::Mode::Monolithic, name));
        mono.run();
        double ref = mono.meanPacketLatency();

        cosim::FullSystem abs(
            Config(), accuracyOptions(cosim::Mode::Abstract, name));
        abs.run();

        cosim::FullSystem cs(
            Config(), accuracyOptions(cosim::Mode::CosimCycle, name));
        cs.run();

        cosim::FullSystem tuned(
            Config(), accuracyOptions(cosim::Mode::TunedAbstract, name));
        tuned.abstractNetwork()->table() = cs.bridge().table();
        tuned.run();

        auto pair_opts = accuracyOptions(cosim::Mode::CosimCycle, name);
        pair_opts.abstract.granularity =
            abstractnet::LatencyTable::Granularity::Pair;
        cosim::FullSystem pair(Config(), pair_opts);
        pair.run();

        double abs_err = relErr(abs.meanPacketLatency(), ref);
        double tuned_err = relErr(tuned.meanPacketLatency(), ref);
        double cosim_err = relErr(cs.meanPacketLatency(), ref);
        double pair_err = relErr(pair.meanPacketLatency(), ref);
        abs_sum += abs_err;
        tuned_sum += tuned_err;
        cosim_sum += cosim_err;
        pair_sum += pair_err;
        ++apps;
        printRow({name, pct(abs_err), pct(tuned_err), pct(cosim_err),
                  pct(pair_err)});
    }
    printRow({"mean", pct(abs_sum / apps), pct(tuned_sum / apps),
              pct(cosim_sum / apps), pct(pair_sum / apps)});
    std::printf("\n(tuned = feedback direction only; cosim = both "
                "directions; pair = cosim with per-flow feedback "
                "granularity)\n");
    return 0;
}
