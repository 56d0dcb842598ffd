"""The paper's competitors, implemented from scratch on the local substrate:
RPPR/BRPPR (Gleich & Polito 2006), NB-LIN (Tong et al. 2008), BEAR-APPROX
(Shin et al. 2015), and HubPPR (Wang et al. 2016). Each exposes the common
harness interface: ``preprocess()``, ``query(seed)``,
``preprocessed_bytes``; long phases call ``deadline.check()``."""
