"""The offline computation platform and the monitor (Figure 9).

Shows the 'traditional' serving path the paper improves on: a nightly
batch job replays TDAccess history, publishes an item-based CF model
into TDStore, and the recommender engine serves from it — plus the
monitor keeping watch over the whole deployment.

Run:  python examples/offline_platform.py
"""

from repro.engine import RecommenderEngine
from repro.monitoring import SystemMonitor
from repro.offline import BatchCFJob, JobScheduler
from repro.simulation import video_scenario
from repro.tdaccess import TDAccessCluster
from repro.tdstore import TDStoreCluster
from repro.utils.clock import SECONDS_PER_DAY, SimClock


def main():
    clock = SimClock()
    scenario = video_scenario(seed=21, num_users=150, initial_items=120)
    tdaccess = TDAccessCluster(clock, num_data_servers=3)
    tdaccess.create_topic("user_actions", 4)
    tdstore = TDStoreCluster(num_data_servers=3, num_instances=16)

    monitor = SystemMonitor(clock.now)
    monitor.watch("tdaccess", tdaccess)
    monitor.watch("tdstore", tdstore)
    etl = tdaccess.consumer("user_actions", group_id="monitor-probe")
    monitor.watch("consumers", etl, name="offline-etl")

    producer = tdaccess.producer()
    scheduler = JobScheduler(interval=SECONDS_PER_DAY)  # nightly rebuild
    scheduler.register(
        BatchCFJob(tdaccess, "user_actions", tdstore.client())
    )

    print("simulating two days of traffic with nightly batch rebuilds...")
    for hour in range(48):
        clock.advance_to(hour * 3600.0)
        for user in scenario.population.users():
            if hour % 4 == 0 and user.activity > 0.6:
                for action in scenario.behavior.organic_session(
                    user, clock.now()
                ):
                    producer.send(
                        "user_actions",
                        {
                            "user": action.user_id,
                            "item": action.item_id,
                            "action": action.action,
                            "timestamp": action.timestamp,
                        },
                        key=action.user_id,
                    )
        ran = scheduler.maybe_run(clock.now())
        if ran:
            when, name, stats = scheduler.log[-1]
            print(f"  t={when / 3600:.0f}h: job {name!r} rebuilt from "
                  f"{stats['events']} events "
                  f"({stats['items_published']} items, "
                  f"{stats['users_published']} users published)")

    engine = RecommenderEngine(tdstore.client())
    shopper = next(
        user.user_id
        for user in scenario.population.users()
        if user.activity > 0.6
    )
    print(f"\noffline-model recommendations for {shopper}:")
    for rec in engine.recommend_cf(shopper, 5, clock.now()):
        print(f"  {rec.item_id}  score={rec.score:.2f}  via {rec.source}")

    print("\n" + monitor.summary())
    alerts = monitor.evaluate()
    print(f"alerts: {len(alerts)}")
    tdaccess.crash_data_server(0)
    for alert in monitor.evaluate():
        print(f"  [{alert.severity}] {alert.component}: {alert.message}")


if __name__ == "__main__":
    main()
