#include "net/fifo_server.hpp"

#include "util/contract.hpp"

namespace specpf {

FifoServer::FifoServer(Simulator& sim, double bandwidth)
    : Server(sim, bandwidth),
      finish_timer_(sim.add_timer([this] { finish_current(); })) {}

FifoServer::~FifoServer() { sim_.release_timer(finish_timer_); }

std::uint64_t FifoServer::submit(double size, Callback on_complete) {
  SPECPF_EXPECTS(size > 0.0);
  const std::uint64_t id = next_job_id_++;
  queue_.push_back(Job{id, size, sim_.now(), std::move(on_complete)});
  record_arrival();
  if (!in_service_) start_next();
  return id;
}

void FifoServer::start_next() {
  SPECPF_ASSERT(!queue_.empty());
  current_ = std::move(queue_.front());
  queue_.pop_front();
  in_service_ = true;
  sim_.arm_timer(finish_timer_, sim_.now() + current_.size / bandwidth_);
}

void FifoServer::finish_current() {
  TransferResult result;
  result.job_id = current_.id;
  result.size = current_.size;
  result.submit_time = current_.submit_time;
  result.finish_time = sim_.now();
  in_service_ = false;
  record_completion(result);
  Callback cb = std::move(current_.on_complete);
  if (!queue_.empty()) start_next();
  if (cb) cb(result);
}

}  // namespace specpf
