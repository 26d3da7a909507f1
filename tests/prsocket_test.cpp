// PRSocket tests: every Table-1 DCR bit and the MUX_sel field encoding.
#include <gtest/gtest.h>

#include "comm/dcr.hpp"
#include "core/prsocket.hpp"
#include "hwmodule/modules.hpp"
#include "sim/simulator.hpp"

namespace vapres::core {
namespace {

using comm::DcrValue;

struct Rig {
  sim::Simulator sim;
  sim::ClockDomain* static_clk;
  sim::ClockDomain* prr_clk;
  comm::SwitchBox box{"sw", comm::SwitchBoxShape{2, 2, 1, 1}};
  comm::ProducerInterface producer{"p", 16};
  comm::ConsumerInterface consumer{"c", 16};
  comm::FslLink r{"r", 16};
  comm::FslLink t{"t", 16};
  std::unique_ptr<hwmodule::ModuleWrapper> wrapper;
  std::unique_ptr<fabric::PrrClockTree> tree;
  std::unique_ptr<PrSocket> socket;

  Rig() {
    static_clk = &sim.create_domain("clk_sys", 100.0);
    prr_clk = &sim.create_domain("clk_prr", 100.0);
    wrapper = std::make_unique<hwmodule::ModuleWrapper>(
        "w", std::vector<comm::ConsumerInterface*>{&consumer},
        std::vector<comm::ProducerInterface*>{&producer}, &r, &t);
    tree = std::make_unique<fabric::PrrClockTree>(
        fabric::Bufr(fabric::ClockRegionId{0, 0}),
        fabric::Bufgmux(100.0, 50.0), *prr_clk);
    socket = std::make_unique<PrSocket>(
        "sock", &box, std::vector<comm::ProducerInterface*>{&producer},
        std::vector<comm::ConsumerInterface*>{&consumer}, &r, &t,
        wrapper.get(), tree.get());
  }
};

TEST(PrSocket, PowerOnStateIsSafe) {
  Rig rig;
  EXPECT_TRUE(rig.wrapper->isolated());      // SM_en = 0
  EXPECT_FALSE(rig.prr_clk->enabled());      // CLK_en = 0
  EXPECT_FALSE(rig.producer.read_enable());  // FIFO_ren = 0
  EXPECT_FALSE(rig.consumer.write_enable()); // FIFO_wen = 0
  EXPECT_EQ(rig.box.selected(0), -1);        // outputs parked
}

TEST(PrSocket, SmEnBitControlsIsolation) {
  Rig rig;
  rig.socket->dcr_write(PrSocket::kSmEn);
  EXPECT_FALSE(rig.wrapper->isolated());
  rig.socket->dcr_write(0);
  EXPECT_TRUE(rig.wrapper->isolated());
}

TEST(PrSocket, PrrResetBit) {
  Rig rig;
  rig.wrapper->load(std::make_unique<hwmodule::Passthrough>());
  rig.socket->dcr_write(PrSocket::kPrrReset);
  EXPECT_TRUE(rig.wrapper->in_reset());
  rig.socket->dcr_write(0);
  EXPECT_FALSE(rig.wrapper->in_reset());
}

TEST(PrSocket, FifoResetClearsInterfaceFifos) {
  Rig rig;
  rig.producer.fifo().push(1);
  rig.consumer.fifo().push(2);
  rig.socket->dcr_write(PrSocket::kFifoReset);
  EXPECT_TRUE(rig.producer.fifo().empty());
  EXPECT_TRUE(rig.consumer.fifo().empty());
}

TEST(PrSocket, FslResetClearsLinks) {
  Rig rig;
  rig.r.write(1);
  rig.t.write(2);
  rig.socket->dcr_write(PrSocket::kFslReset);
  EXPECT_FALSE(rig.r.can_read());
  EXPECT_FALSE(rig.t.can_read());
}

TEST(PrSocket, ResetBitsAreEdgeTriggered) {
  Rig rig;
  rig.socket->dcr_write(PrSocket::kFifoReset);
  rig.producer.fifo().push(3);
  // Re-writing the same value must not clear again.
  rig.socket->dcr_write(PrSocket::kFifoReset);
  EXPECT_EQ(rig.producer.fifo().size(), 1);
  // Dropping and raising the bit clears.
  rig.socket->dcr_write(0);
  rig.socket->dcr_write(PrSocket::kFifoReset);
  EXPECT_TRUE(rig.producer.fifo().empty());
}

TEST(PrSocket, WenRenBits) {
  Rig rig;
  rig.socket->dcr_write(PrSocket::kFifoWen | PrSocket::kFifoRen);
  EXPECT_TRUE(rig.consumer.write_enable());
  EXPECT_TRUE(rig.producer.read_enable());
  rig.socket->dcr_write(PrSocket::kFifoWen);
  EXPECT_FALSE(rig.producer.read_enable());
  EXPECT_TRUE(rig.consumer.write_enable());
}

TEST(PrSocket, ClkEnGatesPrrClock) {
  Rig rig;
  rig.socket->dcr_write(PrSocket::kClkEn);
  EXPECT_TRUE(rig.prr_clk->enabled());
  rig.socket->dcr_write(0);
  EXPECT_FALSE(rig.prr_clk->enabled());
}

TEST(PrSocket, ClkSelRetunesPrrClock) {
  Rig rig;
  rig.socket->dcr_write(PrSocket::kClkEn);
  EXPECT_DOUBLE_EQ(rig.prr_clk->frequency_mhz(), 100.0);
  rig.socket->dcr_write(PrSocket::kClkEn | PrSocket::kClkSel);
  EXPECT_DOUBLE_EQ(rig.prr_clk->frequency_mhz(), 50.0);
}

TEST(PrSocket, MuxSelFieldEncoding) {
  Rig rig;
  // 5 inputs -> 3 bits per field; output port 2's field at bits 14..16.
  EXPECT_EQ(rig.socket->sel_bits(), 3);
  DcrValue v = rig.socket->with_mux_sel(0, /*output=*/2, /*input=*/4);
  EXPECT_EQ(v, static_cast<DcrValue>(5) << (8 + 2 * 3));
  rig.socket->dcr_write(v);
  EXPECT_EQ(rig.box.selected(2), 4);
  EXPECT_EQ(rig.box.selected(0), -1);  // others still parked

  // Park it again.
  v = rig.socket->with_mux_sel(v, 2, -1);
  rig.socket->dcr_write(v);
  EXPECT_EQ(rig.box.selected(2), -1);
}

TEST(PrSocket, MuxSelRejectsNonexistentInput) {
  Rig rig;
  // Field value 6 selects input 5 which does not exist (5 inputs: 0..4).
  const DcrValue v = static_cast<DcrValue>(6) << 8;
  EXPECT_THROW(rig.socket->dcr_write(v), ModelError);
}

TEST(PrSocket, ReadbackReturnsLastWrite) {
  Rig rig;
  const DcrValue v = PrSocket::kSmEn | PrSocket::kClkEn;
  rig.socket->dcr_write(v);
  EXPECT_EQ(rig.socket->dcr_read(), v);
}

TEST(PrSocket, IomSocketToleratesNullWrapperAndClock) {
  comm::SwitchBox box("sw", comm::SwitchBoxShape{2, 2, 1, 1});
  comm::ProducerInterface p("p", 16);
  comm::ConsumerInterface c("c", 16);
  PrSocket socket("iom_sock", &box,
                  std::vector<comm::ProducerInterface*>{&p},
                  std::vector<comm::ConsumerInterface*>{&c}, nullptr,
                  nullptr, nullptr, nullptr);
  EXPECT_NO_THROW(socket.dcr_write(PrSocket::kSmEn | PrSocket::kClkEn |
                                   PrSocket::kPrrReset |
                                   PrSocket::kFslReset));
  socket.dcr_write(PrSocket::kFifoWen | PrSocket::kFifoRen);
  EXPECT_TRUE(p.read_enable());
  EXPECT_TRUE(c.write_enable());
}

TEST(PrSocket, MuxSelMustFitDcr) {
  // 8 outputs x 4-bit fields = 32 bits + 8 base bits > 32: rejected.
  comm::SwitchBox box("sw", comm::SwitchBoxShape{4, 4, 4, 4});
  EXPECT_THROW(PrSocket("sock", &box, {}, {}, nullptr, nullptr, nullptr,
                        nullptr),
               ModelError);
}

}  // namespace
}  // namespace vapres::core
