/**
 * @file
 * Scaling study: run the reciprocal co-simulation at growing target
 * sizes, report where the wall-clock goes, and what the modelled GPU
 * coprocessor (see DESIGN.md substitution) buys at each scale.
 *
 *   ./scale_out_gpu [system.ops_per_core=80]
 *                   [--checkpoint-dir=DIR] [--restore=DIR]
 *
 * With --checkpoint-dir each target checkpoints into its own
 * DIR/<cols>x<rows> subdirectory; --restore resumes every target from
 * the matching subdirectory.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cosim/full_system.hh"
#include "gpu/gpu_model.hh"

using namespace rasim;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.set("system.app", std::string("fft"));
    cfg.set("system.ops_per_core", 80);

    // Checkpoint convenience flags (per-target subdirectories; the
    // config fingerprint refuses cross-target images anyway).
    std::string ckpt_root, restore_root;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--checkpoint-dir=", 0) == 0)
            ckpt_root = arg.substr(17);
        else if (arg.rfind("--restore=", 0) == 0)
            restore_root = arg.substr(10);
        else
            args.push_back(argv[i]);
    }
    cfg.parseArgs(static_cast<int>(args.size()), args.data());

    gpu::GpuTimingModel device(config::parse<gpu::GpuDeviceParams>(cfg));

    std::printf("%10s %10s %12s %12s %12s %10s\n", "target", "quanta",
                "host_ms", "net_ms", "cpu+gpu_ms", "gain");
    const struct
    {
        int cols, rows;
    } targets[] = {{8, 8}, {16, 8}, {16, 16}, {16, 32}};

    for (const auto &t : targets) {
        auto options = cosim::FullSystemOptions::fromConfig(cfg);
        options.mode = cosim::Mode::CosimCycle;
        options.noc.columns = t.cols;
        options.noc.rows = t.rows;
        std::string target = std::to_string(t.cols) + "x" +
                             std::to_string(t.rows);
        if (!ckpt_root.empty()) {
            options.checkpoint.dir = ckpt_root + "/" + target;
            if (options.checkpoint.interval_quanta == 0)
                options.checkpoint.interval_quanta = 8;
        }
        if (!restore_root.empty())
            options.checkpoint.restore = restore_root + "/" + target;
        cosim::FullSystem system(cfg, options);
        system.run();

        double host = system.bridge().hostNs();
        double net = system.bridge().netNs();
        double cpu_only = host + net;
        double cpu_gpu = device.overlappedRunNs(
            host, system.bridge().quantaRun(), options.quantum,
            t.cols * t.rows);
        std::printf("%7dx%-2d %10llu %12.1f %12.1f %12.1f %9.1f%%\n",
                    t.cols, t.rows,
                    static_cast<unsigned long long>(
                        system.bridge().quantaRun()),
                    host / 1e6, net / 1e6, cpu_gpu / 1e6,
                    100.0 * (1.0 - cpu_gpu / cpu_only));
    }
    std::printf("\n(gain = modelled CPU+GPU time vs measured CPU-only "
                "time; negative means the\n coprocessor's launch "
                "overhead dominates at that scale)\n");
    return 0;
}
