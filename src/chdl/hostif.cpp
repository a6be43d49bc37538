#include "chdl/hostif.hpp"

#include "util/status.hpp"

namespace atlantis::chdl {

HostInterface::HostInterface(Simulator& sim, ClockId clock)
    : sim_(sim), clock_(clock) {
  const Design& d = sim.design();
  addr_ = d.port("host_addr");
  wdata_ = d.port("host_wdata");
  we_ = d.port("host_we");
  rdata_ = d.port("host_rdata");
}

void HostInterface::write(std::uint32_t addr, std::uint64_t data) {
  sim_.poke(addr_, addr);
  sim_.poke(wdata_, data);
  sim_.poke(we_, 1);
  sim_.step(clock_);
  sim_.poke(we_, 0);
}

std::uint64_t HostInterface::read(std::uint32_t addr) {
  sim_.poke(addr_, addr);
  return sim_.peek_u64(rdata_);
}

void HostInterface::write_block(std::uint32_t addr,
                                std::span<const std::uint64_t> data) {
  sim_.poke(addr_, addr);
  for (const std::uint64_t word : data) {
    sim_.poke(wdata_, word);
    sim_.poke(we_, 1);
    sim_.step(clock_);
  }
  sim_.poke(we_, 0);
}

std::vector<std::uint64_t> HostInterface::read_block(std::uint32_t addr,
                                                     std::size_t count) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  sim_.poke(addr_, addr);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(sim_.peek_u64(rdata_));
    sim_.step(clock_);
  }
  return out;
}

void HostInterface::idle(int n) {
  for (int i = 0; i < n; ++i) sim_.step(clock_);
}

}  // namespace atlantis::chdl
