#include "controller/controller.hpp"

#include "common/log.hpp"

namespace legosdn::ctl {

Controller::Controller(netsim::Network& net) : net_(net) {
  attach_network_callbacks();
}

void Controller::attach_network_callbacks() {
  net_.set_northbound([this](const of::Message& m) { on_northbound(m); });
  net_.set_switch_state_callback(
      [this](DatapathId d, bool up) { on_switch_state(d, up); });
}

AppId Controller::register_app(AppPtr app) {
  AppRecord rec;
  rec.id = AppId{static_cast<std::uint32_t>(apps_.size() + 1)};
  rec.app = std::move(app);
  for (EventType t : rec.app->subscriptions())
    rec.subscribed[static_cast<std::size_t>(t)] = true;
  apps_.push_back(std::move(rec));
  return apps_.back().id;
}

void Controller::start() {
  if (announcer_) {
    announcer_();
    return;
  }
  for (const DatapathId dpid : net_.switch_ids()) {
    const netsim::SimSwitch* sw = net_.switch_at(dpid);
    if (sw && sw->up()) inject_event(SwitchUp{dpid, sw->features()});
  }
}

void Controller::inject_event(Event e) {
  if (engine_) {
    // Engine mode never marks the controller crashed (the LegoSDN layer
    // absorbs app crashes), so no drop path here.
    engine_->submit(std::move(e));
    return;
  }
  if (crashed_) {
    // A down controller has no OF connections; arriving messages are lost.
    stats_.events_dropped += 1;
    return;
  }
  queue_.push_back(std::move(e));
}

void Controller::inject_events(std::vector<Event> events) {
  if (events.empty()) return;
  if (engine_) {
    engine_->submit_batch(std::move(events));
    return;
  }
  if (crashed_) {
    stats_.events_dropped += events.size();
    return;
  }
  for (auto& e : events) queue_.push_back(std::move(e));
}

void Controller::install_dispatch_engine(ShardedDispatcher::Config cfg,
                                         ShardedDispatcher::Sink sink) {
  remove_dispatch_engine();
  engine_run_mark_ = 0;
  // Hand queued events over so none are stranded in the serial queue.
  engine_ = std::make_unique<ShardedDispatcher>(cfg, std::move(sink));
  while (!queue_.empty()) {
    engine_->submit(std::move(queue_.front()));
    queue_.pop_front();
  }
}

void Controller::remove_dispatch_engine() {
  if (!engine_) return;
  engine_->drain();
  engine_.reset();
}

void Controller::on_northbound(const of::Message& msg) {
  std::visit(
      [this](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, of::PacketIn> ||
                      std::is_same_v<T, of::PortStatus> ||
                      std::is_same_v<T, of::FlowRemoved> ||
                      std::is_same_v<T, of::StatsReply> ||
                      std::is_same_v<T, of::BarrierReply> ||
                      std::is_same_v<T, of::OfError>) {
          inject_event(Event{m});
        }
        // hello/echo replies terminate at the controller core.
      },
      msg.body);
}

void Controller::on_switch_state(DatapathId dpid, bool up) {
  if (up) {
    const netsim::SimSwitch* sw = net_.switch_at(dpid);
    of::FeaturesReply features;
    features.dpid = dpid;
    if (sw) features = sw->features();
    inject_event(SwitchUp{dpid, std::move(features)});
  } else {
    inject_event(SwitchDown{dpid});
  }
}

bool Controller::process_one() {
  if (engine_ || crashed_ || queue_.empty()) return false;
  Event e = std::move(queue_.front());
  queue_.pop_front();
  dispatch(std::move(e));
  return true;
}

std::size_t Controller::run(std::size_t max_events) {
  if (engine_) {
    engine_->drain();
    const std::uint64_t done = engine_->dispatched();
    const std::uint64_t n = done - engine_run_mark_;
    engine_run_mark_ = done;
    return static_cast<std::size_t>(n);
  }
  std::size_t n = 0;
  while (n < max_events && process_one()) ++n;
  return n;
}

void Controller::dispatch(Event e) {
  stats_.events_dispatched += 1;
  const auto type_idx = static_cast<std::size_t>(event_type(e));
  for (auto& rec : apps_) {
    if (!rec.subscribed[type_idx]) continue;
    try {
      const Disposition d = rec.app->handle_event(e, *this);
      rec.events_handled += 1;
      if (d == Disposition::kStop) break;
    } catch (const AppCrash& crash) {
      // Monolithic fate-sharing: an unhandled exception in any app is an
      // unhandled exception in the controller process.
      rec.crashes += 1;
      crashed_ = true;
      crash_reason_ = rec.app->name() + ": " + crash.what();
      stats_.controller_crashes += 1;
      LEGOSDN_LOG_WARN("controller", "DOWN — app '%s' crashed: %s",
                       rec.app->name().c_str(), crash.what());
      return;
    }
  }
}

void Controller::reboot() {
  // Everything shared the process: every app loses its state.
  for (auto& rec : apps_) rec.app->reset();
  const std::size_t lost = queue_.size();
  queue_.clear();
  stats_.events_dropped += lost;
  crashed_ = false;
  crash_reason_.clear();
  stats_.reboots += 1;
  start(); // switches reconnect and are re-announced
}

void Controller::send(const of::Message& msg) {
  if (send_suppressed_) {
    // Follower role: app outputs are side-effect-free by contract. (Most
    // never get here — the isolation domains buffer emissions and the
    // follower discards the bundle — but a direct ServiceApi send must be
    // swallowed too.)
    stats_.messages_suppressed += 1;
    return;
  }
  stats_.messages_sent += 1;
  if (southbound_) {
    southbound_(msg);
    return;
  }
  net_.send_to_switch(msg);
}

AppRecord* Controller::app_record(AppId id) {
  for (auto& rec : apps_)
    if (rec.id == id) return &rec;
  return nullptr;
}

} // namespace legosdn::ctl
