//! The synthetic site the socket workloads request from: the same
//! generator the origin serves from, so the benchmark knows every path,
//! size and link, and can check each body byte for byte.

use piggyback_proxyd::{synth_body, ProxyConfig};
use piggyback_trace::synth::site::{Site, SiteConfig};
use piggyback_trace::synth::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Pages in the benchmark site (about 1k resources once images count).
const SITE_PAGES: usize = 400;

pub fn site_config() -> SiteConfig {
    SiteConfig {
        n_pages: SITE_PAGES,
        ..Default::default()
    }
}

pub struct SiteModel {
    pub paths: Vec<String>,
    pub sizes: Vec<u64>,
    pub site: Site,
    /// Resources a workload may request, by index: everything under the
    /// streaming threshold, in id order (rank 0 is the most popular).
    pub eligible: Vec<u32>,
    pub eligible_flag: Vec<bool>,
}

impl SiteModel {
    pub fn generate() -> SiteModel {
        let (table, site) = Site::generate(&site_config());
        let mut paths = vec![String::new(); table.len()];
        let mut sizes = vec![0; table.len()];
        for (id, path, meta) in table.iter() {
            paths[id.0 as usize] = path.to_owned();
            sizes[id.0 as usize] = meta.size;
        }
        // Objects at or above the proxy's shipped streaming threshold take
        // its cut-through path; the workloads request only smaller ones.
        let unused = std::net::SocketAddr::from(([127, 0, 0, 1], 0));
        let threshold = ProxyConfig::new(unused).stream_threshold as u64;
        let eligible_flag: Vec<bool> = sizes.iter().map(|&s| s < threshold).collect();
        let eligible = (0..sizes.len() as u32)
            .filter(|&i| eligible_flag[i as usize])
            .collect();
        SiteModel {
            paths,
            sizes,
            site,
            eligible,
            eligible_flag,
        }
    }

    pub fn get_request(&self, r: u32) -> Vec<u8> {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\n\r\n",
            self.paths[r as usize]
        )
        .into_bytes()
    }

    pub fn write_request(&self, r: u32) -> Vec<u8> {
        format!(
            "GET /_pb/modify{} HTTP/1.1\r\nHost: bench\r\n\r\n",
            self.paths[r as usize]
        )
        .into_bytes()
    }

    pub fn expected_body(&self, r: u32) -> Vec<u8> {
        synth_body(&self.paths[r as usize], self.sizes[r as usize])
    }

    /// Mean body size weighted by `counts` (requests per resource).
    pub fn mean_body(&self, counts: &[u64]) -> f64 {
        let (mut n, mut bytes) = (0u64, 0u64);
        for (r, &c) in counts.iter().enumerate() {
            n += c;
            bytes += c * self.sizes[r];
        }
        if n == 0 {
            0.0
        } else {
            bytes as f64 / n as f64
        }
    }
}

/// One scheduled request: a GET of `res`, or a write (`/_pb/modify`) of it.
#[derive(Clone, Copy)]
pub struct Step {
    pub res: u32,
    pub write: bool,
}

/// Browsing sessions over the site's link graph: an entry page drawn from
/// a Zipf popularity over pages, its embedded images, then with some
/// probability a linked page, and so on. Volume-mates (a page and its
/// images share a directory) therefore arrive together, as in the
/// paper's logs. About `write_frac` of the steps are writes to a resource
/// of a Zipf-popular page.
pub struct SessionGen<'a> {
    model: &'a SiteModel,
    zipf: Zipf,
    rng: StdRng,
    write_frac: f64,
    pending: std::collections::VecDeque<u32>,
}

/// Popularity skew of session entry pages and write targets.
const PAGE_ZIPF_S: f64 = 0.9;
/// Probability a session follows one more link.
const CONTINUE_PROB: f64 = 0.6;
/// Most pages one session visits.
const MAX_SESSION_PAGES: usize = 6;

impl<'a> SessionGen<'a> {
    pub fn new(model: &'a SiteModel, seed: u64, write_frac: f64) -> Self {
        SessionGen {
            model,
            zipf: Zipf::new(model.site.pages.len(), PAGE_ZIPF_S),
            rng: StdRng::seed_from_u64(seed),
            write_frac,
            pending: Default::default(),
        }
    }

    fn page_resources(&self, page: usize, out: &mut std::collections::VecDeque<u32>) {
        let p = &self.model.site.pages[page];
        for r in std::iter::once(p.resource).chain(p.images.iter().copied()) {
            if self.model.eligible_flag[r.0 as usize] {
                out.push_back(r.0);
            }
        }
    }

    fn session(&mut self) {
        let mut page = self.zipf.sample(&mut self.rng);
        let mut pending = std::mem::take(&mut self.pending);
        for _ in 0..MAX_SESSION_PAGES {
            self.page_resources(page, &mut pending);
            let links = &self.model.site.pages[page].links;
            if links.is_empty() || self.rng.random::<f64>() >= CONTINUE_PROB {
                break;
            }
            page = links[self.rng.random_range(0..links.len())];
        }
        self.pending = pending;
    }

    pub fn next_step(&mut self) -> Step {
        if self.rng.random::<f64>() < self.write_frac {
            let page = self.zipf.sample(&mut self.rng);
            let mut rs = Default::default();
            self.page_resources(page, &mut rs);
            if !rs.is_empty() {
                let res = rs[self.rng.random_range(0..rs.len())];
                return Step { res, write: true };
            }
        }
        while self.pending.is_empty() {
            self.session();
        }
        Step {
            res: self.pending.pop_front().expect("refilled above"),
            write: false,
        }
    }
}
