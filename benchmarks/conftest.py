"""Shared infrastructure for the reproduction benchmarks.

Each paper exhibit (Table 1, Figures 10/11/13/14) is regenerated once
per pytest session by a cached experiment fixture; the pytest-benchmark
timings then exercise the hot query/ingest paths of the engines that
experiment trained. Reproduced tables are printed and also written to
``benchmarks/results/`` so they survive pytest's stdout capture.

Scale: the paper measured a month (Table 1) / a week (Figures 10-14) of
production traffic; we simulate 8 days (1 warm-up + 7 reported) over a
few hundred users per application, which preserves the comparisons'
shape at laptop cost. Set REPRO_BENCH_DAYS / REPRO_BENCH_USERS to scale.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.evaluation import (
    ABTestConfig,
    ABTestRunner,
    PriceIndex,
    SimilarPriceEngine,
    SimilarPurchaseEngine,
    TencentRecCBEngine,
    TencentRecCFEngine,
    TencentRecCTREngine,
    make_original,
)
from repro.simulation import (
    ads_scenario,
    ecommerce_scenario,
    news_scenario,
    video_scenario,
)

SEED = 2015  # the paper's year
BENCH_DAYS = int(os.environ.get("REPRO_BENCH_DAYS", "8"))
USER_SCALE = float(os.environ.get("REPRO_BENCH_USERS", "1.0"))

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def users(base: int) -> int:
    return max(50, int(base * USER_SCALE))


def report(name: str, text: str):
    """Print a reproduced exhibit and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


def report_json(name: str, payload: dict):
    """Machine-readable exhibit: ``BENCH_<name>.json`` at the repo root,
    where CI jobs and downstream tooling pick it up without parsing
    pytest output."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (REPO_ROOT / f"BENCH_{name}.json").write_text(text, encoding="utf-8")


def alive_check(scenario):
    def item_alive(item_id, now):
        return scenario.catalog.get(item_id).meta.is_active(now)

    return item_alive


class Experiment:
    """One completed A/B run plus handles for the timing paths."""

    def __init__(self, scenario, engines, result, anchored=False):
        self.scenario = scenario
        self.engines = engines
        self.result = result
        self.anchored = anchored

    def treatment(self):
        return self.engines["tencentrec"]

    def reported_improvements(self, metric="ctr"):
        """Daily improvements with the warm-up day dropped."""
        return self.result.daily_improvements(
            "tencentrec", "original", metric
        )[1:]

    def summary(self, metric="ctr"):
        daily = self.reported_improvements(metric)
        return {
            "avg": sum(daily) / len(daily),
            "min": min(daily),
            "max": max(daily),
        }


def run_experiment(scenario, engine_factory, interval, anchored=False,
                   feed_impressions=False, filter_consumed=True):
    engines = {
        "tencentrec": engine_factory(),
        "original": make_original(
            engine_factory(), interval, filter_consumed=filter_consumed
        ),
    }
    runner = ABTestRunner(
        scenario,
        engines,
        ABTestConfig(
            num_days=BENCH_DAYS,
            anchored=anchored,
            feed_impressions=feed_impressions,
        ),
    )
    return Experiment(scenario, engines, runner.run(), anchored)


@pytest.fixture(scope="session")
def news_experiment():
    """News vs. the hourly-refresh Original (Figures 10-11, Table 1 row 1)."""
    scenario = news_scenario(
        seed=SEED, num_users=users(300), initial_items=100,
        arrivals_per_day=200,
    )
    profiles = scenario.population.profile
    item_alive = alive_check(scenario)

    def factory():
        return TencentRecCBEngine(profiles, item_alive=item_alive)

    return run_experiment(scenario, factory, interval=3600.0)


@pytest.fixture(scope="session")
def video_experiment():
    """Videos vs. the daily-refresh Original (Table 1 row 2)."""
    scenario = video_scenario(seed=SEED, num_users=users(500),
                              initial_items=200)
    profiles = scenario.population.profile
    item_alive = alive_check(scenario)

    def factory():
        return TencentRecCFEngine(profiles, recent_k=3, item_alive=item_alive)

    return run_experiment(scenario, factory, interval=86400.0)


@pytest.fixture(scope="session")
def yixun_price_experiment():
    """YiXun similar-price position vs. the daily Original (Figure 13)."""
    scenario = ecommerce_scenario(seed=SEED, num_users=users(400),
                                  initial_items=300)
    profiles = scenario.population.profile
    item_alive = alive_check(scenario)

    def factory():
        return SimilarPriceEngine(
            profiles, PriceIndex(), recent_k=5, item_alive=item_alive
        )

    return run_experiment(scenario, factory, interval=86400.0, anchored=True)


@pytest.fixture(scope="session")
def yixun_purchase_experiment():
    """YiXun similar-purchase position vs. the daily Original (Figure 14)."""
    scenario = ecommerce_scenario(seed=SEED, num_users=users(400),
                                  initial_items=300)
    profiles = scenario.population.profile
    item_alive = alive_check(scenario)

    def factory():
        return SimilarPurchaseEngine(profiles, item_alive=item_alive)

    return run_experiment(scenario, factory, interval=86400.0, anchored=True)


@pytest.fixture(scope="session")
def ads_experiment():
    """QQ ads, situational CTR vs. a six-hourly Original (Table 1 row 4)."""
    scenario = ads_scenario(seed=SEED, num_users=users(400), num_ads=40)
    profiles = scenario.population.profile
    item_alive = alive_check(scenario)

    def factory():
        return TencentRecCTREngine(profiles, item_alive=item_alive)

    return run_experiment(
        scenario,
        factory,
        interval=6 * 3600.0,
        feed_impressions=True,
        # ads are re-shown by design; the display layer does not filter
        # previously seen advertisements
        filter_consumed=False,
    )
