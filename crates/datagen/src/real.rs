#![allow(clippy::needless_range_loop)] // parallel-array indexing is the clearer idiom here

//! Synthetic analogues of the 11 evaluation datasets (paper Table 4).
//!
//! Every generator reproduces its namesake's *shape*: column count and type mix,
//! marginal skew, cross-column correlation, periodic sensor structure, and
//! missing-value patterns (Aqua and Build get asynchronous-sampling nulls; Flights
//! and Taxis get record-keeping nulls). Row counts are parameters — the registry
//! records the paper's full sizes, benchmarks typically run scaled-down.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ph_stats::gaussian;
use ph_types::{Column, Dataset};

use crate::util::{diurnal, lognormal, walk_step, zipf};

/// Registry entry for one evaluation dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as used throughout the paper's figures.
    pub name: &'static str,
    /// Rows in the paper's real dataset (Table 4).
    pub paper_rows: usize,
    /// Columns (Table 4).
    pub columns: usize,
}

/// The Table 4 roster.
pub fn all_specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec { name: "Aqua", paper_rows: 913_465, columns: 13 },
        DatasetSpec { name: "Basement", paper_rows: 1_051_200, columns: 12 },
        DatasetSpec { name: "Build", paper_rows: 14_381_639, columns: 7 },
        DatasetSpec { name: "Current", paper_rows: 1_051_200, columns: 24 },
        DatasetSpec { name: "Flights", paper_rows: 5_819_079, columns: 32 },
        DatasetSpec { name: "Furnace", paper_rows: 1_051_200, columns: 12 },
        DatasetSpec { name: "Gas", paper_rows: 928_991, columns: 12 },
        DatasetSpec { name: "Light", paper_rows: 405_184, columns: 9 },
        DatasetSpec { name: "Power", paper_rows: 2_049_280, columns: 10 },
        DatasetSpec { name: "Taxis", paper_rows: 3_889_032, columns: 23 },
        DatasetSpec { name: "Temp", paper_rows: 10_553_597, columns: 5 },
    ]
}

/// Generates the named dataset analogue with `rows` rows; `None` for unknown names.
pub fn generate(name: &str, rows: usize, seed: u64) -> Option<Dataset> {
    Some(match name {
        "Aqua" => aqua(rows, seed),
        "Basement" => meters("Basement", rows, seed, MeterStyle::Residential),
        "Build" => build(rows, seed),
        "Current" => current(rows, seed),
        "Flights" => flights(rows, seed),
        "Furnace" => meters("Furnace", rows, seed, MeterStyle::Cycling),
        "Gas" => gas(rows, seed),
        "Light" => light(rows, seed),
        "Power" => power(rows, seed),
        "Taxis" => taxis(rows, seed),
        "Temp" => temp(rows, seed),
        _ => return None,
    })
}

const DAY: usize = 1440; // minutes per day for minute-sampled sensors

fn timestamps(n: usize, step: i64) -> Column {
    Column::from_timestamps(
        "timestamp",
        (0..n).map(|i| Some(1_577_836_800 + i as i64 * step)).collect(),
    )
}

/// Aqua: aquaponics ponds, 3 sources × 4 sensors + shared timestamp. Sources sample
/// asynchronously, so each row carries one pond's readings — the "many null values
/// due to asynchronous sampling" pattern the paper calls out.
fn aqua(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let ponds = 3;
    let sensors = ["temp", "ph", "do", "turbidity"];
    let mut cols: Vec<Vec<Option<f64>>> = vec![vec![None; n]; ponds * sensors.len()];
    let mut state: Vec<[f64; 4]> = (0..ponds)
        .map(|p| [24.0 + p as f64, 7.0 + 0.2 * p as f64, 6.5, 12.0 + 3.0 * p as f64])
        .collect();
    for i in 0..n {
        let p = i % ponds; // round-robin source sampling
        let s = &mut state[p];
        s[0] = walk_step(&mut rng, s[0], 24.0 + p as f64 + diurnal(i, DAY, 1.5), 0.05, 0.1);
        s[1] = walk_step(&mut rng, s[1], 7.0 + 0.2 * p as f64, 0.02, 0.02);
        s[2] = walk_step(&mut rng, s[2], 6.5 - 0.1 * (s[0] - 24.0), 0.1, 0.1);
        s[3] = (s[3] + 0.02 - 0.04 * rng.gen_bool(0.01) as u8 as f64 * s[3]).max(1.0);
        for (k, _) in sensors.iter().enumerate() {
            cols[p * sensors.len() + k][i] = Some(s[k]);
        }
    }
    let mut b = Dataset::builder("Aqua").column(timestamps(n, 60)).unwrap();
    for p in 0..ponds {
        for (k, s) in sensors.iter().enumerate() {
            b = b
                .column(Column::from_floats(
                    format!("pond{}_{s}", p + 1),
                    std::mem::take(&mut cols[p * sensors.len() + k]),
                    2,
                ))
                .unwrap();
        }
    }
    b.build()
}

enum MeterStyle {
    /// Diurnal base load + appliance spikes (Basement).
    Residential,
    /// On/off duty cycling — strongly bimodal (Furnace).
    Cycling,
}

/// Basement / Furnace: 11 electrical channels + timestamp (AMPds2 sub-panels).
fn meters(name: &str, n: usize, seed: u64, style: MeterStyle) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels = 11;
    let mut cols: Vec<Vec<Option<f64>>> = (0..channels).map(|_| Vec::with_capacity(n)).collect();
    let mut on = false;
    for i in 0..n {
        let base = match style {
            MeterStyle::Residential => 120.0 + diurnal(i, DAY, 60.0),
            MeterStyle::Cycling => {
                if rng.gen_bool(0.01) {
                    on = !on;
                }
                if on {
                    950.0
                } else {
                    8.0
                }
            }
        };
        for (c, col) in cols.iter_mut().enumerate() {
            let scale = 0.4 + 0.12 * c as f64;
            let spike = if rng.gen_bool(0.004) { lognormal(&mut rng, 5.0, 0.6) } else { 0.0 };
            col.push(Some((base * scale + spike + 2.0 * gaussian(&mut rng)).max(0.0)));
        }
    }
    let mut b = Dataset::builder(name).column(timestamps(n, 60)).unwrap();
    for (c, data) in cols.into_iter().enumerate() {
        b = b.column(Column::from_floats(format!("ch{:02}", c + 1), data, 1)).unwrap();
    }
    b.build()
}

/// Build: smart-building rooms — timestamp, room id, and five sensors with
/// asynchronous nulls (each sample reports a subset of sensors).
fn build(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rooms = 50;
    let sensors = ["co2", "temperature", "humidity", "light", "pir"];
    let mut room_col = Vec::with_capacity(n);
    let mut cols: Vec<Vec<Option<f64>>> = vec![vec![None; n]; sensors.len()];
    for i in 0..n {
        let room = zipf(&mut rng, rooms, 0.8);
        room_col.push(Some(room as u32));
        let occupied = diurnal(i, DAY, 1.0) > 0.0 && rng.gen_bool(0.6);
        let values = [
            400.0 + if occupied { lognormal(&mut rng, 5.0, 0.5) } else { 20.0 * rng.gen::<f64>() },
            21.0 + diurnal(i, DAY, 2.0) + gaussian(&mut rng),
            45.0 + 8.0 * gaussian(&mut rng),
            if occupied { 300.0 + 80.0 * gaussian(&mut rng) } else { 5.0 * rng.gen::<f64>() },
            occupied as u8 as f64,
        ];
        // Asynchronous sampling: each record reports ~2 of 5 sensors.
        for (k, col) in cols.iter_mut().enumerate() {
            if rng.gen_bool(0.4) {
                col[i] = Some(values[k]);
            }
        }
    }
    let dict: Vec<String> = (0..rooms).map(|r| format!("room{r:02}")).collect();
    let mut b = Dataset::builder("Build")
        .column(timestamps(n, 30))
        .unwrap()
        .column(Column::from_codes("room", room_col, dict))
        .unwrap();
    for (k, s) in sensors.iter().enumerate() {
        b = b.column(Column::from_floats(*s, std::mem::take(&mut cols[k]), 1)).unwrap();
    }
    b.build()
}

/// Current: 23 per-circuit current channels sharing a diurnal base load.
fn current(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels = 23;
    let mut cols: Vec<Vec<Option<f64>>> = (0..channels).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        let base = (8.0 + diurnal(i, DAY, 5.0) + gaussian(&mut rng)).max(0.1);
        for (c, col) in cols.iter_mut().enumerate() {
            let duty = if rng.gen_bool(0.3 + 0.02 * c as f64) { 1.0 } else { 0.05 };
            col.push(Some((base * duty * (0.2 + 0.08 * c as f64)).max(0.0)));
        }
    }
    let mut b = Dataset::builder("Current").column(timestamps(n, 60)).unwrap();
    for (c, data) in cols.into_iter().enumerate() {
        b = b.column(Column::from_floats(format!("I{:02}", c + 1), data, 2)).unwrap();
    }
    b.build()
}

/// Flights: the 32-column flight-records analogue — skewed distances, correlated
/// air time, heavy-tailed delays, categorical airline/airport fields, and nulls on
/// cancelled flights.
fn flights(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let airlines = 14;
    let airports = 300;

    let mut month = Vec::with_capacity(n);
    let mut day = Vec::with_capacity(n);
    let mut dow = Vec::with_capacity(n);
    let mut airline = Vec::with_capacity(n);
    let mut flight_number = Vec::with_capacity(n);
    let mut tail = Vec::with_capacity(n);
    let mut origin = Vec::with_capacity(n);
    let mut dest = Vec::with_capacity(n);
    let mut sched_dep = Vec::with_capacity(n);
    let mut dep_time = Vec::with_capacity(n);
    let mut dep_delay = Vec::with_capacity(n);
    let mut taxi_out = Vec::with_capacity(n);
    let mut wheels_off = Vec::with_capacity(n);
    let mut sched_time = Vec::with_capacity(n);
    let mut elapsed = Vec::with_capacity(n);
    let mut air_time = Vec::with_capacity(n);
    let mut distance = Vec::with_capacity(n);
    let mut wheels_on = Vec::with_capacity(n);
    let mut taxi_in = Vec::with_capacity(n);
    let mut sched_arr = Vec::with_capacity(n);
    let mut arr_time = Vec::with_capacity(n);
    let mut arr_delay = Vec::with_capacity(n);
    let mut diverted = Vec::with_capacity(n);
    let mut cancelled = Vec::with_capacity(n);
    let mut cancel_reason: Vec<Option<u32>> = Vec::with_capacity(n);
    let mut air_sys_delay = Vec::with_capacity(n);
    let mut security_delay = Vec::with_capacity(n);
    let mut airline_delay = Vec::with_capacity(n);
    let mut late_ac_delay = Vec::with_capacity(n);
    let mut weather_delay = Vec::with_capacity(n);

    for _ in 0..n {
        month.push(Some(rng.gen_range(1..=12)));
        day.push(Some(rng.gen_range(1..=28)));
        dow.push(Some(rng.gen_range(1..=7)));
        airline.push(Some(zipf(&mut rng, airlines, 0.9) as u32));
        flight_number.push(Some(rng.gen_range(1..7000)));
        tail.push(Some(rng.gen_range(0..4000) as u32));
        origin.push(Some(zipf(&mut rng, airports, 1.0) as u32));
        dest.push(Some(zipf(&mut rng, airports, 1.0) as u32));

        let dist = (100.0 + lognormal(&mut rng, 6.2, 0.75)).min(5000.0);
        distance.push(Some(dist as i64));
        let sdep: i64 = rng.gen_range(500..2200);
        sched_dep.push(Some(sdep));
        let at = dist / 7.5 + 15.0 * gaussian(&mut rng).abs();
        let stime = at + 35.0;
        sched_time.push(Some(stime as i64));
        sched_arr.push(Some((sdep + (stime as i64) * 100 / 60) % 2400));

        let is_cancelled = rng.gen_bool(0.015);
        cancelled.push(Some(is_cancelled as u32));
        if is_cancelled {
            cancel_reason.push(Some(rng.gen_range(0..4)));
            for v in [
                &mut dep_time,
                &mut dep_delay,
                &mut taxi_out,
                &mut wheels_off,
                &mut elapsed,
                &mut air_time,
                &mut wheels_on,
                &mut taxi_in,
                &mut arr_time,
                &mut arr_delay,
            ] {
                v.push(None);
            }
            diverted.push(Some(0));
            for v in [
                &mut air_sys_delay,
                &mut security_delay,
                &mut airline_delay,
                &mut late_ac_delay,
                &mut weather_delay,
            ] {
                v.push(None);
            }
            continue;
        }
        cancel_reason.push(None);

        // Heavy-tailed delays: mostly early/on-time, occasional big positive tail.
        let ddel = if rng.gen_bool(0.25) {
            lognormal(&mut rng, 3.0, 1.0)
        } else {
            -5.0 + 7.0 * gaussian(&mut rng)
        };
        dep_delay.push(Some(ddel as i64));
        dep_time.push(Some((sdep + (ddel as i64).max(-30) * 100 / 60).rem_euclid(2400)));
        let t_out = 10.0 + lognormal(&mut rng, 1.5, 0.5);
        taxi_out.push(Some(t_out as i64));
        wheels_off.push(Some((sdep + t_out as i64) % 2400));
        air_time.push(Some(at as i64));
        let t_in = 4.0 + lognormal(&mut rng, 1.0, 0.5);
        taxi_in.push(Some(t_in as i64));
        let el = at + t_out + t_in;
        elapsed.push(Some(el as i64));
        wheels_on.push(Some((sdep + el as i64) % 2400));
        arr_time.push(Some((sdep + el as i64) % 2400));
        let adel = ddel + el - stime + 5.0 * gaussian(&mut rng);
        arr_delay.push(Some(adel as i64));
        diverted.push(Some(rng.gen_bool(0.002) as u32));

        // Delay-attribution columns populated only for late arrivals.
        if adel > 15.0 {
            let parts = [
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..0.05),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..0.3),
            ];
            let total: f64 = parts.iter().sum();
            let shares: Vec<i64> = parts.iter().map(|p| (p / total * adel) as i64).collect();
            air_sys_delay.push(Some(shares[0]));
            security_delay.push(Some(shares[1]));
            airline_delay.push(Some(shares[2]));
            late_ac_delay.push(Some(shares[3]));
            weather_delay.push(Some(shares[4]));
        } else {
            for v in [
                &mut air_sys_delay,
                &mut security_delay,
                &mut airline_delay,
                &mut late_ac_delay,
                &mut weather_delay,
            ] {
                v.push(None);
            }
        }
    }

    let airline_dict: Vec<String> = (0..airlines).map(|a| format!("AL{a:02}")).collect();
    let airport_dict: Vec<String> = (0..airports).map(|a| format!("AP{a:03}")).collect();
    let tail_dict: Vec<String> = (0..4000).map(|t| format!("N{t:04}")).collect();
    let flag_dict = vec!["0".to_string(), "1".to_string()];
    let reason_dict: Vec<String> = ["A", "B", "C", "D"].iter().map(|s| s.to_string()).collect();

    Dataset::builder("Flights")
        .column(Column::from_ints("year", vec![Some(2015); n]))
        .unwrap()
        .column(Column::from_ints("month", month))
        .unwrap()
        .column(Column::from_ints("day", day))
        .unwrap()
        .column(Column::from_ints("day_of_week", dow))
        .unwrap()
        .column(Column::from_codes("airline", airline, airline_dict))
        .unwrap()
        .column(Column::from_ints("flight_number", flight_number))
        .unwrap()
        .column(Column::from_codes("tail_number", tail, tail_dict))
        .unwrap()
        .column(Column::from_codes("origin_airport", origin, airport_dict.clone()))
        .unwrap()
        .column(Column::from_codes("destination_airport", dest, airport_dict))
        .unwrap()
        .column(Column::from_ints("scheduled_departure", sched_dep))
        .unwrap()
        .column(Column::from_ints("departure_time", dep_time))
        .unwrap()
        .column(Column::from_ints("departure_delay", dep_delay))
        .unwrap()
        .column(Column::from_ints("taxi_out", taxi_out))
        .unwrap()
        .column(Column::from_ints("wheels_off", wheels_off))
        .unwrap()
        .column(Column::from_ints("scheduled_time", sched_time))
        .unwrap()
        .column(Column::from_ints("elapsed_time", elapsed))
        .unwrap()
        .column(Column::from_ints("air_time", air_time))
        .unwrap()
        .column(Column::from_ints("distance", distance))
        .unwrap()
        .column(Column::from_ints("wheels_on", wheels_on))
        .unwrap()
        .column(Column::from_ints("taxi_in", taxi_in))
        .unwrap()
        .column(Column::from_ints("scheduled_arrival", sched_arr))
        .unwrap()
        .column(Column::from_ints("arrival_time", arr_time))
        .unwrap()
        .column(Column::from_ints("arrival_delay", arr_delay))
        .unwrap()
        .column(Column::from_codes("diverted", diverted, flag_dict.clone()))
        .unwrap()
        .column(Column::from_codes("cancelled", cancelled, flag_dict))
        .unwrap()
        .column(Column::from_codes("cancellation_reason", cancel_reason, reason_dict))
        .unwrap()
        .column(Column::from_ints("air_system_delay", air_sys_delay))
        .unwrap()
        .column(Column::from_ints("security_delay", security_delay))
        .unwrap()
        .column(Column::from_ints("airline_delay", airline_delay))
        .unwrap()
        .column(Column::from_ints("late_aircraft_delay", late_ac_delay))
        .unwrap()
        .column(Column::from_ints("weather_delay", weather_delay))
        .unwrap()
        .column(Column::from_ints("air_system_flag", (0..n).map(|_| Some(0)).collect()))
        .unwrap()
        .build()
}

/// Gas: MOX sensor array with slow drift and humidity/temperature cross-sensitivity.
fn gas(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mox = 8;
    let mut cols: Vec<Vec<Option<f64>>> = (0..mox).map(|_| Vec::with_capacity(n)).collect();
    let mut temp_c = Vec::with_capacity(n);
    let mut humidity = Vec::with_capacity(n);
    let mut flow = Vec::with_capacity(n);
    let mut drift = 0.0;
    for i in 0..n {
        drift += 0.0005 * gaussian(&mut rng);
        let t = 25.0 + diurnal(i, DAY, 3.0) + 0.5 * gaussian(&mut rng);
        let h = (48.0 + diurnal(i, DAY, 10.0) + 2.0 * gaussian(&mut rng)).clamp(5.0, 95.0);
        let event = rng.gen_bool(0.02);
        temp_c.push(Some(t));
        humidity.push(Some(h));
        flow.push(Some(2.4 + 0.1 * gaussian(&mut rng)));
        for (c, col) in cols.iter_mut().enumerate() {
            let sensitivity = 1.0 + 0.15 * c as f64;
            let base = 10.0 + drift + 0.08 * h + 0.05 * t;
            let gas_resp = if event { lognormal(&mut rng, 2.0, 0.5) * sensitivity } else { 0.0 };
            col.push(Some(base + gas_resp + 0.2 * gaussian(&mut rng)));
        }
    }
    let mut b = Dataset::builder("Gas")
        .column(timestamps(n, 30))
        .unwrap()
        .column(Column::from_floats("temperature", temp_c, 2))
        .unwrap()
        .column(Column::from_floats("humidity", humidity, 2))
        .unwrap()
        .column(Column::from_floats("flow", flow, 2))
        .unwrap();
    for (c, data) in cols.into_iter().enumerate() {
        b = b.column(Column::from_floats(format!("R{}", c + 1), data, 2)).unwrap();
    }
    b.build()
}

/// Light: IoT light-detection node — day/night level, RGBC channels, motion flag.
fn light(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lux = Vec::with_capacity(n);
    let mut rgbc: Vec<Vec<Option<f64>>> = (0..4).map(|_| Vec::with_capacity(n)).collect();
    let mut motion = Vec::with_capacity(n);
    let mut battery = Vec::with_capacity(n);
    let mut device = Vec::with_capacity(n);
    for i in 0..n {
        let daylight = (diurnal(i, DAY, 1.0) + 0.2).max(0.0);
        let l = daylight * 800.0 + lognormal(&mut rng, 1.0, 0.8);
        lux.push(Some(l));
        for (k, ch) in rgbc.iter_mut().enumerate() {
            ch.push(Some(l * (0.2 + 0.05 * k as f64) + 3.0 * gaussian(&mut rng)));
        }
        motion.push(Some(rng.gen_bool(0.08 + 0.1 * daylight) as u32));
        battery.push(Some(100.0 - (i as f64 / n as f64) * 40.0 + 0.5 * gaussian(&mut rng)));
        device.push(Some(zipf(&mut rng, 5, 0.5) as u32));
    }
    let flag_dict = vec!["no".to_string(), "yes".to_string()];
    let dev_dict: Vec<String> = (0..5).map(|d| format!("node{d}")).collect();
    Dataset::builder("Light")
        .column(timestamps(n, 120))
        .unwrap()
        .column(Column::from_floats("lux", lux, 1))
        .unwrap()
        .column(Column::from_floats("red", std::mem::take(&mut rgbc[0]), 1))
        .unwrap()
        .column(Column::from_floats("green", std::mem::take(&mut rgbc[1]), 1))
        .unwrap()
        .column(Column::from_floats("blue", std::mem::take(&mut rgbc[2]), 1))
        .unwrap()
        .column(Column::from_floats("clear", std::mem::take(&mut rgbc[3]), 1))
        .unwrap()
        .column(Column::from_codes("motion", motion, flag_dict))
        .unwrap()
        .column(Column::from_floats("battery", battery, 1))
        .unwrap()
        .column(Column::from_codes("device", device, dev_dict))
        .unwrap()
        .build()
}

/// Power: the UCI household power analogue — correlated electrical quantities.
fn power(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active = Vec::with_capacity(n);
    let mut reactive = Vec::with_capacity(n);
    let mut voltage = Vec::with_capacity(n);
    let mut intensity = Vec::with_capacity(n);
    let mut sub1 = Vec::with_capacity(n);
    let mut sub2 = Vec::with_capacity(n);
    let mut sub3 = Vec::with_capacity(n);
    let mut month = Vec::with_capacity(n);
    let mut weekday = Vec::with_capacity(n);
    for i in 0..n {
        // The UCI trace has ~1.25% missing measurement windows.
        if rng.gen_bool(0.0125) {
            for v in [
                &mut active,
                &mut reactive,
                &mut voltage,
                &mut intensity,
                &mut sub1,
                &mut sub2,
                &mut sub3,
            ] {
                v.push(None);
            }
        } else {
            let load =
                (0.3 + diurnal(i, DAY, 0.8).max(-0.25) + lognormal(&mut rng, -1.2, 0.9)).min(11.0);
            active.push(Some(load));
            reactive.push(Some((0.1 + 0.05 * load + 0.04 * gaussian(&mut rng)).max(0.0)));
            voltage.push(Some(240.0 - 1.5 * load + 1.2 * gaussian(&mut rng)));
            intensity.push(Some(load * 4.35 + 0.2 * gaussian(&mut rng)));
            let kitchen = if rng.gen_bool(0.12) { lognormal(&mut rng, 3.0, 0.5) } else { 0.0 };
            let laundry = if rng.gen_bool(0.08) { lognormal(&mut rng, 3.2, 0.4) } else { 1.0 };
            sub1.push(Some(kitchen.min(80.0)));
            sub2.push(Some(laundry.min(80.0)));
            sub3.push(Some(
                (6.0 + 5.0 * diurnal(i, DAY, 1.0).max(0.0) + gaussian(&mut rng)).max(0.0),
            ));
        }
        month.push(Some(1 + (i / (DAY * 30)) as i64 % 12));
        weekday.push(Some(((i / DAY) % 7) as i64 + 1));
    }
    Dataset::builder("Power")
        .column(timestamps(n, 60))
        .unwrap()
        .column(Column::from_floats("global_active_power", active, 3))
        .unwrap()
        .column(Column::from_floats("global_reactive_power", reactive, 3))
        .unwrap()
        .column(Column::from_floats("voltage", voltage, 2))
        .unwrap()
        .column(Column::from_floats("global_intensity", intensity, 1))
        .unwrap()
        .column(Column::from_floats("sub_metering_1", sub1, 1))
        .unwrap()
        .column(Column::from_floats("sub_metering_2", sub2, 1))
        .unwrap()
        .column(Column::from_floats("sub_metering_3", sub3, 1))
        .unwrap()
        .column(Column::from_ints("month", month))
        .unwrap()
        .column(Column::from_ints("weekday", weekday))
        .unwrap()
        .build()
}

/// Taxis: Chicago taxi trips — fares driven by miles/time, Zipf companies and
/// areas, tip behaviour tied to payment type, location nulls.
fn taxis(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let areas = 77;
    let companies = 50;
    let payments = 6;

    macro_rules! vecs {
        ($($name:ident),*) => { $(let mut $name = Vec::with_capacity(n);)* };
    }
    vecs!(
        taxi_id,
        start_ts,
        end_ts,
        seconds,
        miles,
        pickup_area,
        dropoff_area,
        fare,
        tips,
        tolls,
        extras,
        total,
        payment,
        company,
        p_lat,
        p_lon,
        d_lat,
        d_lon,
        p_tract,
        d_tract,
        shared,
        pooled,
        speed
    );
    for i in 0..n {
        taxi_id.push(Some(zipf(&mut rng, 500, 0.7) as u32));
        let t0 = 1_577_836_800 + (i as i64 * 37) % (365 * 86_400);
        start_ts.push(Some(t0));
        let mi = lognormal(&mut rng, 0.9, 0.9).min(60.0);
        let secs = (mi * 180.0 + lognormal(&mut rng, 5.0, 0.5)).min(18_000.0);
        end_ts.push(Some(t0 + secs as i64));
        seconds.push(Some(secs as i64));
        miles.push(Some(mi));
        let has_location = rng.gen_bool(0.85); // census/location fields often absent
        let (pa, da) = (zipf(&mut rng, areas, 1.1) as u32, zipf(&mut rng, areas, 1.1) as u32);
        pickup_area.push(has_location.then_some(pa));
        dropoff_area.push(has_location.then_some(da));
        let f = 3.25 + 2.25 * mi + secs / 36.0 * 0.25 + 0.5 * gaussian(&mut rng).abs();
        fare.push(Some(f));
        let pay = zipf(&mut rng, payments, 1.3) as u32;
        payment.push(Some(pay));
        // Card payments (rank 0) tip ~18%; cash rarely records tips.
        let tip = if pay == 0 { f * rng.gen_range(0.1..0.25) } else { 0.0 };
        tips.push(Some(tip));
        let tl = if rng.gen_bool(0.03) { rng.gen_range(1.0..8.0) } else { 0.0 };
        tolls.push(Some(tl));
        let ex = if rng.gen_bool(0.2) { rng.gen_range(0.5..4.0) } else { 0.0 };
        extras.push(Some(ex));
        total.push(Some(f + tip + tl + ex));
        company.push(Some(zipf(&mut rng, companies, 1.0) as u32));
        p_lat.push(has_location.then(|| 41.88 + 0.08 * gaussian(&mut rng)));
        p_lon.push(has_location.then(|| -87.63 + 0.08 * gaussian(&mut rng)));
        d_lat.push(has_location.then(|| 41.88 + 0.09 * gaussian(&mut rng)));
        d_lon.push(has_location.then(|| -87.63 + 0.09 * gaussian(&mut rng)));
        p_tract.push(has_location.then(|| 17_031_000_000 + pa as i64 * 10_000));
        d_tract.push(has_location.then(|| 17_031_000_000 + da as i64 * 10_000));
        shared.push(Some(rng.gen_bool(0.07) as u32));
        pooled.push(Some(rng.gen_range(1..=2)));
        speed.push(Some((mi / (secs / 3600.0)).min(80.0)));
    }
    let area_dict: Vec<String> = (0..areas).map(|a| format!("area{a:02}")).collect();
    let company_dict: Vec<String> = (0..companies).map(|c| format!("co{c:02}")).collect();
    let pay_dict: Vec<String> = ["Credit Card", "Cash", "Mobile", "Prcard", "Unknown", "Dispute"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let taxi_dict: Vec<String> = (0..500).map(|t| format!("taxi{t:03}")).collect();
    let flag_dict = vec!["false".to_string(), "true".to_string()];
    Dataset::builder("Taxis")
        .column(Column::from_codes("taxi_id", taxi_id, taxi_dict))
        .unwrap()
        .column(Column::from_timestamps("trip_start", start_ts))
        .unwrap()
        .column(Column::from_timestamps("trip_end", end_ts))
        .unwrap()
        .column(Column::from_ints("trip_seconds", seconds))
        .unwrap()
        .column(Column::from_floats("trip_miles", miles, 2))
        .unwrap()
        .column(Column::from_codes("pickup_area", pickup_area, area_dict.clone()))
        .unwrap()
        .column(Column::from_codes("dropoff_area", dropoff_area, area_dict))
        .unwrap()
        .column(Column::from_floats("fare", fare, 2))
        .unwrap()
        .column(Column::from_floats("tips", tips, 2))
        .unwrap()
        .column(Column::from_floats("tolls", tolls, 2))
        .unwrap()
        .column(Column::from_floats("extras", extras, 2))
        .unwrap()
        .column(Column::from_floats("trip_total", total, 2))
        .unwrap()
        .column(Column::from_codes("payment_type", payment, pay_dict))
        .unwrap()
        .column(Column::from_codes("company", company, company_dict))
        .unwrap()
        .column(Column::from_floats("pickup_latitude", p_lat, 4))
        .unwrap()
        .column(Column::from_floats("pickup_longitude", p_lon, 4))
        .unwrap()
        .column(Column::from_floats("dropoff_latitude", d_lat, 4))
        .unwrap()
        .column(Column::from_floats("dropoff_longitude", d_lon, 4))
        .unwrap()
        .column(Column::from_ints("pickup_tract", p_tract))
        .unwrap()
        .column(Column::from_ints("dropoff_tract", d_tract))
        .unwrap()
        .column(Column::from_codes("shared_trip", shared, flag_dict))
        .unwrap()
        .column(Column::from_ints("trips_pooled", pooled))
        .unwrap()
        .column(Column::from_floats("speed_mph", speed, 1))
        .unwrap()
        .build()
}

/// Temp: a single temperature sensor stream — seasonal + diurnal structure.
fn temp(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let year = DAY * 365;
    let mut temperature = Vec::with_capacity(n);
    let mut humidity = Vec::with_capacity(n);
    let mut battery = Vec::with_capacity(n);
    let mut device = Vec::with_capacity(n);
    for i in 0..n {
        let seasonal = diurnal(i, year, 12.0);
        let t = 12.0 + seasonal + diurnal(i, DAY, 4.0) + 0.8 * gaussian(&mut rng);
        temperature.push(Some(t));
        humidity.push(Some((60.0 - 0.8 * t + 5.0 * gaussian(&mut rng)).clamp(5.0, 100.0)));
        battery.push(Some(3.0 - 0.4 * (i as f64 / n as f64) + 0.01 * gaussian(&mut rng)));
        device.push(Some(zipf(&mut rng, 10, 0.4) as u32));
    }
    let dev_dict: Vec<String> = (0..10).map(|d| format!("sensor{d}")).collect();
    Dataset::builder("Temp")
        .column(timestamps(n, 10))
        .unwrap()
        .column(Column::from_floats("temperature", temperature, 2))
        .unwrap()
        .column(Column::from_floats("humidity", humidity, 2))
        .unwrap()
        .column(Column::from_floats("battery", battery, 3))
        .unwrap()
        .column(Column::from_codes("device", device, dev_dict))
        .unwrap()
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_generates_with_declared_shape() {
        for spec in all_specs() {
            let d = generate(spec.name, 2000, 42).expect("known dataset");
            assert_eq!(d.n_rows(), 2000, "{}", spec.name);
            assert_eq!(d.n_columns(), spec.columns, "{} column count", spec.name);
            assert_eq!(d.name(), spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate("Power", 1000, 7).unwrap();
        let b = generate("Power", 1000, 7).unwrap();
        assert_eq!(a, b);
        let c = generate("Power", 1000, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(generate("Nope", 10, 1).is_none());
    }

    #[test]
    fn aqua_and_build_have_asynchronous_nulls() {
        for name in ["Aqua", "Build"] {
            let d = generate(name, 3000, 1).unwrap();
            let null_frac: f64 = d
                .columns()
                .iter()
                .skip(1) // timestamp is dense
                .map(|c| 1.0 - c.valid_count() as f64 / d.n_rows() as f64)
                .sum::<f64>()
                / (d.n_columns() - 1) as f64;
            assert!(null_frac > 0.3, "{name} should be null-heavy, got {null_frac:.2}");
        }
    }

    #[test]
    fn flights_has_cancellation_nulls_and_correlation() {
        let d = generate("Flights", 20_000, 3).unwrap();
        let air_time = d.column_by_name("air_time").unwrap();
        assert!(air_time.valid_count() < d.n_rows(), "cancelled flights null out air_time");
        // distance and air_time strongly correlated.
        let dist = d.column_by_name("distance").unwrap();
        let mut n = 0.0;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for r in 0..d.n_rows() {
            if let (Some(x), Some(y)) = (dist.numeric(r), air_time.numeric(r)) {
                n += 1.0;
                sx += x;
                sy += y;
                sxx += x * x;
                syy += y * y;
                sxy += x * y;
            }
        }
        let r = (sxy / n - sx / n * (sy / n))
            / ((sxx / n - (sx / n) * (sx / n)).sqrt() * (syy / n - (sy / n) * (sy / n)).sqrt());
        assert!(r > 0.9, "distance/air_time correlation should be strong, got {r:.3}");
    }

    #[test]
    fn skewed_marginals_present() {
        // Taxi miles are log-normal: mean well above median.
        let d = generate("Taxis", 20_000, 4).unwrap();
        let miles = d.column_by_name("trip_miles").unwrap();
        let mut vals: Vec<f64> = (0..d.n_rows()).filter_map(|r| miles.numeric(r)).collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        let median = vals[vals.len() / 2];
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean > 1.3 * median, "mean {mean:.2} vs median {median:.2}");
    }

    #[test]
    fn furnace_is_bimodal() {
        let d = generate("Furnace", 10_000, 5).unwrap();
        let ch = d.column_by_name("ch01").unwrap();
        let vals: Vec<f64> = (0..d.n_rows()).filter_map(|r| ch.numeric(r)).collect();
        let low = vals.iter().filter(|&&v| v < 100.0).count();
        let high = vals.iter().filter(|&&v| v > 300.0).count();
        assert!(low > 1000 && high > 1000, "cycling load must be bimodal ({low}/{high})");
    }
}
