/**
 * @file
 * Tests for the GPU coprocessor timing model: the launch-overhead vs
 * throughput trade-off that produces the paper's scaling shape.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include "gpu/gpu_model.hh"
#include "sim/config.hh"

namespace
{

using namespace rasim;
using namespace rasim::gpu;

TEST(GpuTimingModel, CycleTimeLaunchDominatedWhenSmall)
{
    GpuDeviceParams p;
    p.kernel_launch_ns = 3000;
    p.router_slot_ns = 50;
    p.parallel_width = 128;
    GpuTimingModel m(p);
    // 64 routers fit in one wave: 2 * (3000 + 50).
    EXPECT_DOUBLE_EQ(m.cycleNs(64), 6100.0);
    // 128 routers: still one wave.
    EXPECT_DOUBLE_EQ(m.cycleNs(128), 6100.0);
}

TEST(GpuTimingModel, CycleTimeScalesInWaves)
{
    GpuDeviceParams p;
    p.kernel_launch_ns = 1000;
    p.router_slot_ns = 100;
    p.parallel_width = 100;
    GpuTimingModel m(p);
    EXPECT_DOUBLE_EQ(m.cycleNs(100), 2.0 * (1000 + 100));
    EXPECT_DOUBLE_EQ(m.cycleNs(101), 2.0 * (1000 + 200));
    EXPECT_DOUBLE_EQ(m.cycleNs(500), 2.0 * (1000 + 500));
}

TEST(GpuTimingModel, DeviceScalesSublinearlyUnlikeSerialHost)
{
    GpuTimingModel m;
    // Growing the target 8x grows device time far less than 8x (the
    // root of the paper's 256- vs 512-core result).
    double t64 = m.cycleNs(64);
    double t512 = m.cycleNs(512);
    EXPECT_LT(t512 / t64, 3.0);
    EXPECT_GT(t512, t64);
}

TEST(GpuTimingModel, QuantumAddsBoundaryTransfer)
{
    GpuDeviceParams p;
    p.boundary_transfer_ns = 5000;
    GpuTimingModel m(p);
    EXPECT_DOUBLE_EQ(m.quantumNs(10, 64),
                     10 * m.cycleNs(64) + 5000.0);
}

TEST(GpuTimingModel, OverlapTakesMaxPerQuantum)
{
    GpuDeviceParams p;
    p.kernel_launch_ns = 1000;
    p.router_slot_ns = 10;
    p.parallel_width = 1024;
    p.boundary_transfer_ns = 0;
    GpuTimingModel m(p);
    double device_q = m.quantumNs(100, 256);
    // Host-bound: host per quantum dwarfs the device.
    EXPECT_DOUBLE_EQ(
        m.overlappedRunNs(10.0 * device_q * 4, 4, 100, 256),
        10.0 * device_q * 4);
    // Device-bound: device per quantum dwarfs the host.
    EXPECT_DOUBLE_EQ(m.overlappedRunNs(4.0, 4, 100, 256),
                     4.0 * device_q);
}

TEST(GpuTimingModel, ZeroQuantaDegenerates)
{
    GpuTimingModel m;
    EXPECT_DOUBLE_EQ(m.overlappedRunNs(123.0, 0, 10, 64), 123.0);
}

TEST(GpuDeviceParams, ConfigOverrides)
{
    Config cfg;
    cfg.set("gpu.kernel_launch_ns", 777.0);
    cfg.set("gpu.parallel_width", 32);
    auto p = config::parse<GpuDeviceParams>(cfg);
    EXPECT_DOUBLE_EQ(p.kernel_launch_ns, 777.0);
    EXPECT_EQ(p.parallel_width, 32);
}

TEST(GpuDeviceParams, BadWidthIsFatal)
{
    Config cfg;
    cfg.set("gpu.parallel_width", 0);
    EXPECT_SIM_ERROR(config::parse<GpuDeviceParams>(cfg), "positive");
}

} // namespace
