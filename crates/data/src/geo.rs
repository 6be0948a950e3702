//! Naming coordinates after the nearest major freight market, so reports
//! read like the paper's prose ("a load from Green Bay to Lafayette ...
//! one from Portland to Sacramento") instead of raw lat/lon pairs.

use crate::model::LatLon;

/// A reference market: name and coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Market {
    pub name: &'static str,
    pub lat: f64,
    pub lon: f64,
}

/// Major North American freight markets (plus Honolulu for the paper's
/// air-freight outliers). Coordinates at city centers.
pub const MARKETS: [Market; 36] = [
    Market {
        name: "Green Bay, WI",
        lat: 44.5,
        lon: -88.0,
    },
    Market {
        name: "Chicago, IL",
        lat: 41.9,
        lon: -87.6,
    },
    Market {
        name: "Milwaukee, WI",
        lat: 43.0,
        lon: -87.9,
    },
    Market {
        name: "Minneapolis, MN",
        lat: 44.98,
        lon: -93.27,
    },
    Market {
        name: "Detroit, MI",
        lat: 42.33,
        lon: -83.05,
    },
    Market {
        name: "Indianapolis, IN",
        lat: 39.77,
        lon: -86.16,
    },
    Market {
        name: "Columbus, OH",
        lat: 39.96,
        lon: -83.0,
    },
    Market {
        name: "Cleveland, OH",
        lat: 41.5,
        lon: -81.7,
    },
    Market {
        name: "Pittsburgh, PA",
        lat: 40.44,
        lon: -80.0,
    },
    Market {
        name: "Philadelphia, PA",
        lat: 39.95,
        lon: -75.17,
    },
    Market {
        name: "New York, NY",
        lat: 40.71,
        lon: -74.01,
    },
    Market {
        name: "Boston, MA",
        lat: 42.36,
        lon: -71.06,
    },
    Market {
        name: "Buffalo, NY",
        lat: 42.89,
        lon: -78.88,
    },
    Market {
        name: "Baltimore, MD",
        lat: 39.29,
        lon: -76.61,
    },
    Market {
        name: "Charlotte, NC",
        lat: 35.23,
        lon: -80.84,
    },
    Market {
        name: "Atlanta, GA",
        lat: 33.75,
        lon: -84.39,
    },
    Market {
        name: "Jacksonville, FL",
        lat: 30.33,
        lon: -81.66,
    },
    Market {
        name: "Miami, FL",
        lat: 25.76,
        lon: -80.19,
    },
    Market {
        name: "Nashville, TN",
        lat: 36.16,
        lon: -86.78,
    },
    Market {
        name: "Memphis, TN",
        lat: 35.15,
        lon: -90.05,
    },
    Market {
        name: "St. Louis, MO",
        lat: 38.63,
        lon: -90.2,
    },
    Market {
        name: "Kansas City, MO",
        lat: 39.1,
        lon: -94.58,
    },
    Market {
        name: "New Orleans, LA",
        lat: 29.95,
        lon: -90.07,
    },
    Market {
        name: "Houston, TX",
        lat: 29.76,
        lon: -95.37,
    },
    Market {
        name: "Dallas, TX",
        lat: 32.78,
        lon: -96.8,
    },
    Market {
        name: "San Antonio, TX",
        lat: 29.42,
        lon: -98.49,
    },
    Market {
        name: "Oklahoma City, OK",
        lat: 35.47,
        lon: -97.52,
    },
    Market {
        name: "Denver, CO",
        lat: 39.74,
        lon: -104.99,
    },
    Market {
        name: "Salt Lake City, UT",
        lat: 40.76,
        lon: -111.89,
    },
    Market {
        name: "Phoenix, AZ",
        lat: 33.45,
        lon: -112.07,
    },
    Market {
        name: "Los Angeles, CA",
        lat: 34.05,
        lon: -118.24,
    },
    Market {
        name: "Sacramento, CA",
        lat: 38.58,
        lon: -121.49,
    },
    Market {
        name: "Portland, OR",
        lat: 45.52,
        lon: -122.68,
    },
    Market {
        name: "Seattle, WA",
        lat: 47.61,
        lon: -122.33,
    },
    Market {
        name: "Boise, ID",
        lat: 43.62,
        lon: -116.2,
    },
    Market {
        name: "Honolulu, HI",
        lat: 21.31,
        lon: -157.86,
    },
];

/// The nearest market to `p` and the distance to it in miles.
pub fn nearest_market(p: LatLon) -> (&'static Market, f64) {
    let mut best = &MARKETS[0];
    let mut best_d = f64::INFINITY;
    for m in &MARKETS {
        let d = p.haversine_miles(LatLon::new(m.lat, m.lon));
        if d < best_d {
            best_d = d;
            best = m;
        }
    }
    (best, best_d)
}

/// Human-readable name for a coordinate: the market name when within
/// `radius_miles`, otherwise "near `<market>`" or the raw coordinates for
/// truly remote points.
pub fn describe(p: LatLon) -> String {
    let (market, d) = nearest_market(p);
    if d <= 25.0 {
        market.name.to_string()
    } else if d <= 150.0 {
        format!("near {}", market.name)
    } else {
        p.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_market_hits() {
        assert_eq!(describe(LatLon::new(44.5, -88.0)), "Green Bay, WI");
        assert_eq!(describe(LatLon::new(21.3, -157.8)), "Honolulu, HI");
    }

    #[test]
    fn nearby_points() {
        // Madison, WI: ~75 miles from Milwaukee.
        let desc = describe(LatLon::new(43.07, -89.4));
        assert!(desc.starts_with("near "), "got {desc}");
    }

    #[test]
    fn remote_points_fall_back_to_coordinates() {
        // Middle of nowhere, Nevada... actually within 150mi of SLC? Use
        // a mid-ocean point.
        let desc = describe(LatLon::new(30.0, -140.0));
        assert!(desc.contains("(30.0, -140.0)"), "got {desc}");
    }

    #[test]
    fn nearest_market_distance_is_minimal() {
        let p = LatLon::new(41.0, -87.0);
        let (m, d) = nearest_market(p);
        for other in &MARKETS {
            let od = p.haversine_miles(LatLon::new(other.lat, other.lon));
            assert!(od >= d - 1e-9, "{} closer than {}", other.name, m.name);
        }
    }
}
