/* C accelerator for the repro.sim event kernel.
 *
 * Five pieces, all optional (repro.sim._accel builds this module on
 * first use when a C compiler is available; without it the kernel runs
 * on the pure-Python repro.sim.equeue.HeapQueue and the Python dispatch
 * loop in repro.sim.core):
 *
 *   - BandHeap: the event queue, a binary heap of ``(t, priority)``
 *     bands (each band's events in push order).  It keeps the cohort
 *     contract of equeue.HeapQueue and produces the identical dispatch
 *     order ``(t, priority, arrival)``; it may hand one key's arrivals
 *     out as consecutive cohorts, which changes no order.
 *   - TimeoutFn: a callable installed as ``sim.timeout`` (and, in its
 *     hop forms, as ``sim.urgent_hop`` and ``sim.hop_after``) that
 *     performs the pooled-Timeout fast path without entering the
 *     interpreter.
 *   - GrantFn: ``request`` / ``release`` of a ``Resource(capacity=1)``
 *     (the NIC sides), installed per instance when no lifecycle ledger
 *     (repro.sim.ledger) is attached.
 *   - Move: one message of repro.net.ethernet.Network as a state
 *     machine of event callbacks, with no process to resume.
 *   - drive(): the dispatch loop of Simulator._drive.  It runs
 *     Event._process for every event kind, and every bound
 *     Process._resume callback runs in C around ``generator.send`` /
 *     ``throw`` (a generator's return becomes an inlined URGENT
 *     ``succeed``); a Move callback steps its move in C, and a Timeout
 *     callback (``hop_after``) is pushed as ``Timeout.__call__`` does.
 *
 * All simulation *semantics* stay in the Python classes -- this file
 * only mirrors the exact hot-path steps of Simulator._drive,
 * Event._process and Process._resume, and calls back into Python for
 * every cold case: other callbacks (``_Condition._check``, interrupt
 * delivery), ``fail``, ``_resume_tail`` for an already-processed or
 * non-event yield, and any Event subclass that overrides ``_process``.
 * Slot access uses member-descriptor offsets resolved at setup() time,
 * so the Python class layout remains the single source of truth.
 *
 * drive() is only used when the sanitizer is off (the sanitizer needs a
 * per-event Python hook); the Python loop in core.py drives this queue
 * through its visible pop_cohort / requeue_front methods in that case.
 * GrantFn is only used while ``sim._ledger`` is None, and so is Move.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define IDLE_PRIO (1L << 30)
#define POOL_MAX 4096

/* ------------------------------------------------------------------ state */

/* One queued band: events of one (t, prio) key, in push order.  `seq`
 * orders the bands of one key: pushed bands take ascending seqs, and a
 * requeued remainder takes a descending negative one, which puts it
 * ahead of every band of its key. */
typedef struct {
    double t;
    long prio;
    long long seq;
    PyObject *list; /* owned: PyList of events, push order */
} Band;

typedef struct {
    Band *e;
    Py_ssize_t len, cap;
} MiniHeap;

typedef struct {
    PyObject_HEAD
    MiniHeap h;          /* queued bands, (t, prio, seq) order */
    Py_ssize_t count;    /* queued events */
    long long seq;       /* last ascending band seq */
    long long front_seq; /* last descending (requeued) band seq */
    /* push-side band cache: the newest queued band, NULL after a pop */
    double band_t;
    long band_prio;
    PyObject *band_list; /* borrowed (owned by its heap entry) */
    /* active cohort */
    double active_t;
    long active_prio;
    PyObject *active_list; /* owned */
    double now; /* mirror of sim._now for TimeoutFn */
} BandHeap;

/* resolved at setup() */
static Py_ssize_t off_value, off_processed, off_callbacks, off_delay,
    off_send, off_target, off_resume_cb, off_sim, off_ok, off_defused,
    off_triggered, off_throw, off_gen;
static PyObject *EventType = NULL, *TimeoutType = NULL, *ProcessType = NULL,
    *SimError = NULL;
static PyObject *resume_func = NULL;  /* Process._resume (plain function) */
static PyObject *process_func = NULL; /* Event._process (plain function) */
static PyObject *long_urgent = NULL; /* int(0) */
static PyObject *long_one = NULL;    /* int(1) */
static PyObject *str_process, *str_resume_tail, *str_succeed, *str_fail,
    *str_now, *str_active, *str_append, *str_popleft, *str_remove,
    *str_ledger, *str_bytes_sent, *str_bytes_received, *str_messages;

#define SLOT(ob, off) (*(PyObject **)((char *)(ob) + (off)))

static void slot_set(PyObject *ob, Py_ssize_t off, PyObject *v) /* steals v */
{
    PyObject *old = SLOT(ob, off);
    SLOT(ob, off) = v;
    Py_XDECREF(old);
}

/* --------------------------------------------------------------- MiniHeap */

static int mh_less(const Band *a, const Band *b)
{
    if (a->t != b->t) return a->t < b->t;
    if (a->prio != b->prio) return a->prio < b->prio;
    return a->seq < b->seq;
}

static int mh_push(MiniHeap *h, Band b /* steals b.list */)
{
    if (h->len == h->cap) {
        Py_ssize_t nc = h->cap ? h->cap * 2 : 16;
        Band *nv = PyMem_Realloc(h->e, (size_t)nc * sizeof(Band));
        if (!nv) {
            Py_DECREF(b.list);
            PyErr_NoMemory();
            return -1;
        }
        h->e = nv;
        h->cap = nc;
    }
    Py_ssize_t i = h->len++;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (!mh_less(&b, &h->e[p])) break;
        h->e[i] = h->e[p];
        i = p;
    }
    h->e[i] = b;
    return 0;
}

static Band mh_pop(MiniHeap *h)
{
    Band top = h->e[0];
    Band last = h->e[--h->len];
    Py_ssize_t i = 0, n = h->len;
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && mh_less(&h->e[c + 1], &h->e[c])) c++;
        if (!mh_less(&h->e[c], &last)) break;
        h->e[i] = h->e[c];
        i = c;
    }
    if (n) h->e[i] = last;
    return top;
}

/* --------------------------------------------------------------- BandHeap */

static PyTypeObject BandHeap_Type;

static PyObject *BandHeap_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    BandHeap *q = (BandHeap *)type->tp_alloc(type, 0);
    if (!q) return NULL;
    q->active_t = -1.0;
    q->active_prio = IDLE_PRIO;
    /* tp_alloc (PyType_GenericAlloc) already GC-tracks the object */
    return (PyObject *)q;
}

static int BandHeap_traverse(BandHeap *q, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < q->h.len; i++) Py_VISIT(q->h.e[i].list);
    Py_VISIT(q->active_list);
    return 0;
}

static int BandHeap_clear(BandHeap *q)
{
    /* detach first: releasing an event can run Python code that pushes */
    Band *e = q->h.e;
    Py_ssize_t n = q->h.len;
    q->h.e = NULL;
    q->h.len = q->h.cap = 0;
    q->count = 0;
    q->band_list = NULL;
    for (Py_ssize_t i = 0; i < n; i++) Py_DECREF(e[i].list);
    PyMem_Free(e);
    Py_CLEAR(q->active_list);
    return 0;
}

static void BandHeap_dealloc(BandHeap *q)
{
    PyObject_GC_UnTrack(q);
    BandHeap_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

/* Queue `ev` as a new band of (t, prio), the newest one. */
static int bh_push_band(BandHeap *q, double t, long prio, PyObject *ev)
{
    PyObject *list = PyList_New(1);
    if (!list) return -1;
    PyList_SET_ITEM(list, 0, Py_NewRef(ev));
    Band b = {t, prio, ++q->seq, list};
    if (mh_push(&q->h, b) < 0) return -1;
    q->count++;
    q->band_t = t;
    q->band_prio = prio;
    q->band_list = list;
    return 0;
}

/* Queue the non-None entries of `events` (borrowed) as one band of
 * (t, prio) that runs ahead of every other band of that key. */
static int bh_requeue_band(BandHeap *q, double t, long prio, PyObject *events)
{
    Py_ssize_t n = PyList_GET_SIZE(events), nrem = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        if (PyList_GET_ITEM(events, i) != Py_None) nrem++;
    if (!nrem) return 0;
    PyObject *list = PyList_New(nrem);
    if (!list) return -1;
    for (Py_ssize_t i = 0, j = 0; i < n; i++) {
        PyObject *e = PyList_GET_ITEM(events, i);
        if (e != Py_None) PyList_SET_ITEM(list, j++, Py_NewRef(e));
    }
    Band b = {t, prio, --q->front_seq, list};
    if (mh_push(&q->h, b) < 0) return -1;
    q->count += nrem;
    return 0;
}

static int bh_preempt(BandHeap *q, double t, long prio, PyObject *ev)
{
    PyObject *act = q->active_list;
    double at = q->active_t;
    long ap = q->active_prio;
    q->active_prio = IDLE_PRIO;
    q->active_list = NULL;
    if (act != NULL) {
        /* own the sole reference that active_list held */
        if (bh_requeue_band(q, at, ap, act) < 0) {
            Py_DECREF(act);
            return -1;
        }
        /* clear in place: the driver's loop over this list terminates */
        if (PyList_SetSlice(act, 0, PyList_GET_SIZE(act), NULL) < 0) {
            Py_DECREF(act);
            return -1;
        }
        Py_DECREF(act);
    }
    return bh_push_band(q, t, prio, ev);
}

static int bh_push(BandHeap *q, double t, long prio, PyObject *ev /* borrowed */)
{
    if (q->band_list != NULL && t == q->band_t && prio == q->band_prio) {
        if (PyList_Append(q->band_list, ev) < 0) return -1;
        q->count++;
        return 0;
    }
    if (prio < q->active_prio && t == q->active_t)
        return bh_preempt(q, t, prio, ev);
    return bh_push_band(q, t, prio, ev);
}

/* Pop the top band as the active cohort: 1 = cohort ready (active_*
 * filled), 0 = empty.  A second band of the same key is not merged in:
 * it holds only later arrivals and pops right after this one, so the
 * dispatch order is the same either way. */
static int bh_pop_cohort(BandHeap *q)
{
    q->band_list = NULL;
    if (!q->h.len) {
        q->active_prio = IDLE_PRIO;
        Py_CLEAR(q->active_list);
        return 0;
    }
    Band b = mh_pop(&q->h);
    q->count -= PyList_GET_SIZE(b.list);
    q->active_t = b.t;
    q->active_prio = b.prio;
    Py_XSETREF(q->active_list, b.list); /* ownership moves */
    return 1;
}

/* Early exit mid-cohort: restore the non-None remainder of `events`
 * and forget the active cohort. */
static int bh_requeue_front(BandHeap *q, double t, long prio, PyObject *events)
{
    int rc = bh_requeue_band(q, t, prio, events);
    q->active_prio = IDLE_PRIO;
    Py_CLEAR(q->active_list);
    return rc;
}

/* -------------------------------------------- BandHeap python methods */

static PyObject *BandHeap_push_py(BandHeap *q, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push(t, priority, event)");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred()) return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred()) return NULL;
    if (bh_push(q, t, prio, args[2]) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *BandHeap_pop_cohort_py(BandHeap *q, PyObject *noarg)
{
    if (!bh_pop_cohort(q)) Py_RETURN_NONE;
    return Py_BuildValue("(dlO)", q->active_t, q->active_prio, q->active_list);
}

static PyObject *BandHeap_requeue_front_py(BandHeap *q, PyObject *const *args,
                                           Py_ssize_t nargs)
{
    if (nargs != 3 || !PyList_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "requeue_front(t, priority, events)");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred()) return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred()) return NULL;
    if (bh_requeue_front(q, t, prio, args[2]) < 0) return NULL;
    Py_RETURN_NONE;
}

static PyObject *BandHeap_peek_py(BandHeap *q, PyObject *noarg)
{
    return PyFloat_FromDouble(q->h.len ? q->h.e[0].t : Py_HUGE_VAL);
}

static PyObject *BandHeap_info(BandHeap *q, PyObject *noarg)
{
    return Py_BuildValue("{s:s,s:n,s:n}", "discipline", "bandheap", "count",
                         q->count, "bands", q->h.len);
}

static Py_ssize_t BandHeap_len(BandHeap *q)
{
    return q->count;
}

static PyMethodDef BandHeap_methods[] = {
    {"push", (PyCFunction)BandHeap_push_py, METH_FASTCALL,
     "push(t, priority, event)"},
    {"pop_cohort", (PyCFunction)BandHeap_pop_cohort_py, METH_NOARGS,
     "pop the earliest (t, priority) band -> (t, priority, events) or None"},
    {"requeue_front", (PyCFunction)BandHeap_requeue_front_py, METH_FASTCALL,
     "restore the non-None remainder of a cohort list"},
    {"peek", (PyCFunction)BandHeap_peek_py, METH_NOARGS,
     "time of the next event, or inf"},
    {"info", (PyCFunction)BandHeap_info, METH_NOARGS,
     "occupancy counters (dict)"},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods BandHeap_as_seq = {.sq_length = (lenfunc)BandHeap_len};

static PyMemberDef BandHeap_members[] = {
    /* Python drivers (sanitized runs, step()) sync this clock mirror so
     * the C timeout fast path always sees the current sim._now. */
    {"now", T_DOUBLE, offsetof(BandHeap, now), 0, "mirror of sim._now"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject BandHeap_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.BandHeap",
    .tp_basicsize = sizeof(BandHeap),
    .tp_dealloc = (destructor)BandHeap_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)BandHeap_traverse,
    .tp_clear = (inquiry)BandHeap_clear,
    .tp_methods = BandHeap_methods,
    .tp_members = BandHeap_members,
    .tp_as_sequence = &BandHeap_as_seq,
    .tp_new = BandHeap_new,
    .tp_doc = "Binary heap of (t, priority) event bands (C accelerated)",
};

/* ------------------------------------------------------------ TimeoutFn */

typedef struct {
    PyObject_HEAD
    PyObject *sim;  /* owned */
    BandHeap *q;    /* owned */
    PyObject *pool; /* owned list, or NULL when pooling is disabled */
    int hop;        /* 1: sim.urgent_hop() -- no arguments, zero delay, URGENT;
                     * 2: sim.hop_after(event) -- zero delay, NORMAL, queued
                     *    when `event` is processed (its callback) */
} TimeoutFn;

static PyObject *float_zero = NULL; /* 0.0, the delay of every hop */

static int TimeoutFn_traverse(TimeoutFn *f, visitproc visit, void *arg)
{
    Py_VISIT(f->sim);
    Py_VISIT((PyObject *)f->q);
    Py_VISIT(f->pool);
    return 0;
}

static int TimeoutFn_clear(TimeoutFn *f)
{
    Py_CLEAR(f->sim);
    Py_CLEAR(f->q);
    Py_CLEAR(f->pool);
    return 0;
}

static void TimeoutFn_dealloc(TimeoutFn *f)
{
    PyObject_GC_UnTrack(f);
    TimeoutFn_clear(f);
    Py_TYPE(f)->tp_free((PyObject *)f);
}

/* A Timeout of `sim` with every Event slot set as Timeout.__init__ sets
 * it (not yet queued; callbacks/delay/_value are set by the caller). */
static PyObject *new_timeout(PyObject *sim)
{
    PyTypeObject *tp = (PyTypeObject *)TimeoutType;
    PyObject *ev = tp->tp_alloc(tp, 0);
    if (!ev) return NULL;
    SLOT(ev, off_sim) = Py_NewRef(sim);
    SLOT(ev, off_ok) = Py_NewRef(Py_True);
    SLOT(ev, off_triggered) = Py_NewRef(Py_True);
    SLOT(ev, off_defused) = Py_NewRef(Py_False);
    return ev;
}

/* A Timeout of `sim` for `delay_ob`, not yet queued: one popped from
 * `pool` (NULL: pooling disabled) or a new one, with the per-use fields
 * reset as Simulator.timeout resets them (a pooled Timeout keeps its
 * invariant flags _triggered, _ok, _defused). */
static PyObject *pooled_timeout(PyObject *sim, PyObject *pool,
                                PyObject *delay_ob, PyObject *value)
{
    Py_ssize_t psz;
    PyObject *ev;
    if (pool == NULL || (psz = PyList_GET_SIZE(pool)) == 0) {
        ev = new_timeout(sim);
        if (!ev) return NULL;
    } else {
        ev = PyList_GET_ITEM(pool, psz - 1);
        Py_INCREF(ev);
        if (PyList_SetSlice(pool, psz - 1, psz, NULL) < 0) {
            Py_DECREF(ev);
            return NULL;
        }
    }
    PyObject *cbs = PyList_New(0);
    if (!cbs) {
        Py_DECREF(ev);
        return NULL;
    }
    slot_set(ev, off_callbacks, cbs);
    slot_set(ev, off_delay, Py_NewRef(delay_ob));
    slot_set(ev, off_value, Py_NewRef(value));
    slot_set(ev, off_processed, Py_NewRef(Py_False));
    return ev;
}

static PyObject *TimeoutFn_call(TimeoutFn *f, PyObject *args, PyObject *kw)
{
    Py_ssize_t na = PyTuple_GET_SIZE(args);
    PyObject *delay_ob;
    PyObject *value = Py_None;
    long prio = 1; /* NORMAL */
    if (f->hop == 2) { /* Simulator.hop_after */
        PyObject *target = na == 1 ? PyTuple_GET_ITEM(args, 0) : NULL, *ev;
        if (!target || (kw && PyDict_GET_SIZE(kw)) ||
            !PyObject_TypeCheck(target, (PyTypeObject *)EventType))
            return PyErr_Format(PyExc_TypeError, "hop_after(event)");
        if (!PyList_CheckExact(SLOT(target, off_callbacks)))
            return PyErr_Format(SimError, "hop_after() of processed %R", target);
        ev = pooled_timeout(f->sim, f->pool, float_zero, Py_None);
        if (ev && PyList_Append(SLOT(target, off_callbacks), ev) < 0) Py_CLEAR(ev);
        return ev;
    }
    if (f->hop) {
        if (na != 0 || (kw != NULL && PyDict_GET_SIZE(kw) != 0)) {
            PyErr_SetString(PyExc_TypeError, "urgent_hop() takes no arguments");
            return NULL;
        }
        delay_ob = float_zero;
        prio = 0; /* URGENT */
    } else if (kw != NULL && PyDict_GET_SIZE(kw) != 0) {
        static char *kwlist[] = {"delay", "value", NULL};
        if (!PyArg_ParseTupleAndKeywords(args, kw, "O|O", kwlist, &delay_ob,
                                         &value))
            return NULL;
    } else if (na == 1) {
        delay_ob = PyTuple_GET_ITEM(args, 0);
    } else if (na == 2) {
        delay_ob = PyTuple_GET_ITEM(args, 0);
        value = PyTuple_GET_ITEM(args, 1);
    } else {
        PyErr_SetString(PyExc_TypeError, "timeout(delay, value=None)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(delay_ob);
    if (delay == -1.0 && PyErr_Occurred()) return NULL;
    if (delay < 0.0) {
        PyErr_Format(SimError, "negative timeout delay %R", delay_ob);
        return NULL;
    }
    PyObject *ev = pooled_timeout(f->sim, f->pool, delay_ob, value);
    if (!ev) return NULL;
    if (bh_push(f->q, f->q->now + delay, prio, ev) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return ev;
}

static PyTypeObject TimeoutFn_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.TimeoutFn",
    .tp_basicsize = sizeof(TimeoutFn),
    .tp_dealloc = (destructor)TimeoutFn_dealloc,
    .tp_call = (ternaryfunc)TimeoutFn_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)TimeoutFn_traverse,
    .tp_clear = (inquiry)TimeoutFn_clear,
};

/* --------------------------------------------------------------- setup */

static Py_ssize_t member_offset(PyObject *type, const char *name)
{
    PyObject *d = PyObject_GetAttrString(type, name);
    if (!d) return -1;
    if (!PyObject_TypeCheck(d, &PyMemberDescr_Type)) {
        Py_DECREF(d);
        PyErr_Format(PyExc_TypeError, "%s is not a slot member", name);
        return -1;
    }
    Py_ssize_t off = ((PyMemberDescrObject *)d)->d_member->offset;
    Py_DECREF(d);
    return off;
}

static PyObject *mod_setup(PyObject *self, PyObject *args)
{
    PyObject *event_t, *timeout_t, *process_t, *sim_error;
    if (!PyArg_ParseTuple(args, "OOOO", &event_t, &timeout_t, &process_t,
                          &sim_error))
        return NULL;
    if (!PyType_Check(event_t)) {
        PyErr_SetString(PyExc_TypeError, "setup() needs the Event type");
        return NULL;
    }
    Py_XSETREF(EventType, Py_NewRef(event_t));
    Py_XSETREF(TimeoutType, Py_NewRef(timeout_t));
    Py_XSETREF(ProcessType, Py_NewRef(process_t));
    Py_XSETREF(SimError, Py_NewRef(sim_error));
    off_value = member_offset(event_t, "_value");
    off_processed = member_offset(event_t, "_processed");
    off_callbacks = member_offset(event_t, "callbacks");
    off_sim = member_offset(event_t, "sim");
    off_ok = member_offset(event_t, "_ok");
    off_defused = member_offset(event_t, "_defused");
    off_triggered = member_offset(event_t, "_triggered");
    off_delay = member_offset(timeout_t, "delay");
    off_send = member_offset(process_t, "_send");
    off_throw = member_offset(process_t, "_throw");
    off_gen = member_offset(process_t, "gen");
    off_target = member_offset(process_t, "_target");
    off_resume_cb = member_offset(process_t, "_resume_cb");
    if (off_value < 0 || off_processed < 0 || off_callbacks < 0 ||
        off_sim < 0 || off_ok < 0 || off_defused < 0 || off_triggered < 0 ||
        off_delay < 0 || off_send < 0 || off_throw < 0 || off_gen < 0 ||
        off_target < 0 || off_resume_cb < 0)
        return NULL;
    /* class attribute access yields the plain functions, matched by
     * identity against bound-method callbacks and type lookups */
    PyObject *rf = PyObject_GetAttrString(process_t, "_resume");
    if (!rf) return NULL;
    Py_XSETREF(resume_func, rf);
    PyObject *pf = PyObject_GetAttrString(event_t, "_process");
    if (!pf) return NULL;
    Py_XSETREF(process_func, pf);
    Py_XSETREF(long_urgent, PyLong_FromLong(0));
    str_process = PyUnicode_InternFromString("_process");
    str_resume_tail = PyUnicode_InternFromString("_resume_tail");
    str_succeed = PyUnicode_InternFromString("succeed");
    str_fail = PyUnicode_InternFromString("fail");
    str_now = PyUnicode_InternFromString("_now");
    str_active = PyUnicode_InternFromString("_active");
    str_append = PyUnicode_InternFromString("append");
    str_popleft = PyUnicode_InternFromString("popleft");
    str_remove = PyUnicode_InternFromString("remove");
    str_ledger = PyUnicode_InternFromString("_ledger");
    Py_XSETREF(float_zero, PyFloat_FromDouble(0.0));
    Py_XSETREF(long_one, PyLong_FromLong(1));
    str_bytes_sent = PyUnicode_InternFromString("bytes_sent");
    str_bytes_received = PyUnicode_InternFromString("bytes_received");
    str_messages = PyUnicode_InternFromString("messages_delivered");
    if (!long_urgent || !str_process || !str_resume_tail || !str_succeed ||
        !str_fail || !str_now || !str_active || !str_append || !str_popleft ||
        !str_remove || !str_ledger || !float_zero || !long_one ||
        !str_bytes_sent || !str_bytes_received || !str_messages)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *mod_make_timeout(PyObject *self, PyObject *args)
{
    PyObject *sim, *q, *pool;
    int hop = 0;
    if (!PyArg_ParseTuple(args, "OOO|i", &sim, &q, &pool, &hop)) return NULL;
    if (!PyObject_TypeCheck(q, &BandHeap_Type)) {
        PyErr_SetString(PyExc_TypeError, "make_timeout() needs a BandHeap");
        return NULL;
    }
    TimeoutFn *f = PyObject_GC_New(TimeoutFn, &TimeoutFn_Type);
    if (!f) return NULL;
    f->sim = Py_NewRef(sim);
    f->q = (BandHeap *)Py_NewRef(q);
    f->pool = pool == Py_None ? NULL : Py_NewRef(pool);
    f->hop = hop;
    PyObject_GC_Track(f);
    return (PyObject *)f;
}

/* ev.succeed(value, priority) for an event of the simulator whose queue
 * is `q` (its clock is q->now).  0 ok, -1 error. */
static int ev_succeed(BandHeap *q, PyObject *ev, PyObject *value, long prio)
{
    if (SLOT(ev, off_triggered) == Py_True) {
        /* raises SimulationError("... already triggered") */
        PyObject *p = PyLong_FromLong(prio);
        PyObject *r = p ? PyObject_CallMethodObjArgs(ev, str_succeed, value, p, NULL)
                        : NULL;
        Py_XDECREF(p);
        Py_XDECREF(r);
        return r ? 0 : -1;
    }
    slot_set(ev, off_triggered, Py_NewRef(Py_True));
    slot_set(ev, off_ok, Py_NewRef(Py_True));
    slot_set(ev, off_value, Py_NewRef(value));
    return bh_push(q, q->now, prio, ev);
}

/* -------------------------------------------------------------- GrantFn */

/* request() / release(req) of one Resource(capacity=1): the bodies of
 * Resource.request and Resource.release without the ledger call.
 * Installed on the instance only while the simulator has no ledger; a
 * ledger attached later (by a stall watchdog) sends every call back to
 * the Python methods.  The `users` list and `queue` deque are the Python
 * object's own, so both paths see one state. */
typedef struct {
    PyObject_HEAD
    PyObject *sim;      /* owned */
    BandHeap *q;        /* owned */
    PyObject *res;      /* owned: the Resource */
    PyObject *users;    /* owned: res.users */
    PyObject *queue;    /* owned: res.queue */
    PyObject *req_type; /* owned: _Request */
    PyObject *py_fn;    /* owned: Resource.request / Resource.release */
    Py_ssize_t off_resource;
    int release;
} GrantFn;

static int GrantFn_traverse(GrantFn *g, visitproc visit, void *arg)
{
    Py_VISIT(g->sim);
    Py_VISIT((PyObject *)g->q);
    Py_VISIT(g->res);
    Py_VISIT(g->users);
    Py_VISIT(g->queue);
    Py_VISIT(g->req_type);
    Py_VISIT(g->py_fn);
    return 0;
}

static int GrantFn_clear(GrantFn *g)
{
    Py_CLEAR(g->sim);
    Py_CLEAR(g->q);
    Py_CLEAR(g->res);
    Py_CLEAR(g->users);
    Py_CLEAR(g->queue);
    Py_CLEAR(g->req_type);
    Py_CLEAR(g->py_fn);
    return 0;
}

static void GrantFn_dealloc(GrantFn *g)
{
    PyObject_GC_UnTrack(g);
    GrantFn_clear(g);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static PyObject *grant_request(GrantFn *g)
{
    PyTypeObject *tp = (PyTypeObject *)g->req_type;
    PyObject *req = tp->tp_alloc(tp, 0);
    if (!req) return NULL;
    /* _Request.__init__, slot by slot */
    SLOT(req, off_sim) = Py_NewRef(g->sim);
    if (!(SLOT(req, off_callbacks) = PyList_New(0))) {
        Py_DECREF(req);
        return NULL;
    }
    SLOT(req, off_value) = Py_NewRef(Py_None);
    SLOT(req, off_ok) = Py_NewRef(Py_True);
    SLOT(req, off_triggered) = Py_NewRef(Py_False);
    SLOT(req, off_processed) = Py_NewRef(Py_False);
    SLOT(req, off_defused) = Py_NewRef(Py_False);
    SLOT(req, g->off_resource) = Py_NewRef(g->res);
    int rc;
    if (PyList_GET_SIZE(g->users) < 1) {
        rc = PyList_Append(g->users, req);
        if (rc == 0) {
            /* req.succeed(req), inlined: a fresh request is untriggered */
            slot_set(req, off_triggered, Py_NewRef(Py_True));
            slot_set(req, off_value, Py_NewRef(req));
            rc = bh_push(g->q, g->q->now, 1 /* NORMAL */, req);
        }
    } else {
        PyObject *r = PyObject_CallMethodOneArg(g->queue, str_append, req);
        rc = r ? 0 : -1;
        Py_XDECREF(r);
    }
    if (rc < 0) {
        Py_DECREF(req);
        return NULL;
    }
    return req;
}

static PyObject *grant_release(GrantFn *g, PyObject *req)
{
    PyObject *users = g->users;
    if (PyList_GET_SIZE(users) == 1 && PyList_GET_ITEM(users, 0) == req) {
        if (PyList_SetSlice(users, 0, 1, NULL) < 0) return NULL;
        /* drop the grant's value, the request itself: no self-cycle */
        slot_set(req, off_value, Py_NewRef(Py_None));
    } else {
        /* Releasing a queued (never-granted) request cancels it. */
        PyObject *r = PyObject_CallMethodOneArg(g->queue, str_remove, req);
        if (r) {
            Py_DECREF(r);
            Py_RETURN_NONE;
        }
        if (!PyErr_ExceptionMatches(PyExc_ValueError)) return NULL;
        PyErr_Clear();
        PyErr_SetString(SimError, "release() of unknown request");
        return NULL;
    }
    for (;;) {
        Py_ssize_t nq = PyObject_Size(g->queue);
        if (nq < 0) return NULL;
        if (nq == 0 || PyList_GET_SIZE(users) >= 1) break;
        PyObject *nxt = PyObject_CallMethodNoArgs(g->queue, str_popleft);
        if (!nxt) return NULL;
        int rc = PyList_Append(users, nxt);
        if (rc == 0) rc = ev_succeed(g->q, nxt, nxt, 1 /* NORMAL */);
        Py_DECREF(nxt);
        if (rc < 0) return NULL;
    }
    Py_RETURN_NONE;
}

/* request() (req NULL) or release(req), with the ledger test made on
 * every call. */
static PyObject *grant_call(GrantFn *g, PyObject *req)
{
    PyObject *ledger = PyObject_GetAttr(g->sim, str_ledger);
    if (!ledger) return NULL;
    Py_DECREF(ledger);
    if (ledger != Py_None) {
        /* the ledger enters every request: take the Python method */
        PyObject *argv[2] = {g->res, req};
        return PyObject_Vectorcall(g->py_fn, argv, req ? 2 : 1, NULL);
    }
    return req ? grant_release(g, req) : grant_request(g);
}

static PyObject *GrantFn_call(GrantFn *g, PyObject *args, PyObject *kw)
{
    Py_ssize_t na = PyTuple_GET_SIZE(args);
    if ((kw != NULL && PyDict_GET_SIZE(kw) != 0) || na != g->release) {
        PyErr_SetString(PyExc_TypeError, g->release ? "release(request)"
                                                    : "request() takes no arguments");
        return NULL;
    }
    return grant_call(g, na ? PyTuple_GET_ITEM(args, 0) : NULL);
}

static PyTypeObject GrantFn_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.GrantFn",
    .tp_basicsize = sizeof(GrantFn),
    .tp_dealloc = (destructor)GrantFn_dealloc,
    .tp_call = (ternaryfunc)GrantFn_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)GrantFn_traverse,
    .tp_clear = (inquiry)GrantFn_clear,
};

/* make_grant(resource, queue, request_type, python_method, release) */
static PyObject *mod_make_grant(PyObject *self, PyObject *args)
{
    PyObject *res, *q, *req_type, *py_fn;
    int release;
    if (!PyArg_ParseTuple(args, "OO!OOp", &res, &BandHeap_Type, &q, &req_type,
                          &py_fn, &release))
        return NULL;
    if (!PyType_Check(req_type) ||
        !PyType_IsSubtype((PyTypeObject *)req_type, (PyTypeObject *)EventType)) {
        PyErr_SetString(PyExc_TypeError, "make_grant() needs an Event subclass");
        return NULL;
    }
    Py_ssize_t off_resource = member_offset(req_type, "resource");
    if (off_resource < 0) return NULL;
    PyObject *sim = PyObject_GetAttrString(res, "sim");
    PyObject *users = sim ? PyObject_GetAttrString(res, "users") : NULL;
    PyObject *queue = users ? PyObject_GetAttrString(res, "queue") : NULL;
    if (!queue || !PyList_CheckExact(users)) {
        if (queue) PyErr_SetString(PyExc_TypeError, "resource.users must be a list");
        Py_XDECREF(sim);
        Py_XDECREF(users);
        Py_XDECREF(queue);
        return NULL;
    }
    GrantFn *g = PyObject_GC_New(GrantFn, &GrantFn_Type);
    if (!g) {
        Py_DECREF(sim);
        Py_DECREF(users);
        Py_DECREF(queue);
        return NULL;
    }
    g->sim = sim;
    g->q = (BandHeap *)Py_NewRef(q);
    g->res = Py_NewRef(res);
    g->users = users;
    g->queue = queue;
    g->req_type = Py_NewRef(req_type);
    g->py_fn = Py_NewRef(py_fn);
    g->off_resource = off_resource;
    g->release = release;
    PyObject_GC_Track(g);
    return (PyObject *)g;
}

/* ----------------------------------------------------------------- Move */

/* The transfer chain of repro.net.ethernet.Network: a Move runs one
 * message as a state machine of event callbacks, with no process to
 * resume.  It is the one callback of its start hop (if any), then of its
 * TX request, then of its RX request, then the first one of its `landed`
 * Timeout:
 *   0. Start hop (a pooled zero-delay Timeout, URGENT or NORMAL, pushed
 *      at move()): go on with 1.
 *   1. Request TX (a loopback move pushes `landed` instead).
 *   2. TX granted: request RX.
 *   3. RX granted: push `landed` at now + (fixed + nbytes / bw), NORMAL.
 *   4. Landed: add nbytes to the NICs' byte counters, release RX, then
 *      TX, and add 1 to messages_delivered; in a fan, count down, the
 *      last move pushing `done` NORMAL at now; a single move with an
 *      end hop pushes its pooled `done` Timeout NORMAL at now.
 * These are the steps and pushes of the Network.transfer generator
 * (start hop, three waits, end hop) and of transfer_all's Python chain.
 * A waiter on `landed` resumes after step 4, where the generator's
 * `finally` ran; abort() stands in for that `finally` on an interrupt.
 * Requests and releases go through the NIC sides' GrantFns, whose ledger
 * test runs on every call.  A fan is a Move too, the callback of
 * transfer_all's urgent hop: it starts its moves in order and holds
 * their countdown. */

/* a network's chain constants (`net`): */
enum { C_SIM, C_Q, C_POOL, C_NET, C_NODES, C_FIXED, C_OVERHEAD, C_BW, C_LEN };
/* a node: (nic, tx.request, tx.release, rx.request, rx.release) */
enum { N_NIC, N_TXQ, N_TXR, N_RXQ, N_RXR, N_LEN };
#define ITEM(t, i) PyTuple_GET_ITEM(t, i)
#define GRANT(node, k) ((GrantFn *)ITEM(node, k))

enum { MV_HOP, MV_TX, MV_RX, MV_WIRE, MV_OVER, MV_FAN };

typedef struct Move {
    PyObject_HEAD
    PyObject *net;    /* owned: the chain constants */
    struct Move *fan; /* owned: the fan this move belongs to, or NULL */
    PyObject *s, *d, *nbytes, *tx_req, *rx_req, *landed; /* owned */
    PyObject *moves; /* owned, a fan's: moves (until started) */
    PyObject *done;  /* owned: a fan's done Event, or a move's end-hop Timeout */
    Py_ssize_t left;        /* a fan's: moves not landed yet */
    double delay;
    int state;
} Move;

static PyTypeObject Move_Type;

static int net_ok(PyObject *net)
{
    int ok = PyTuple_CheckExact(net) && PyTuple_GET_SIZE(net) == C_LEN &&
             Py_IS_TYPE(ITEM(net, C_Q), &BandHeap_Type) &&
             PyList_CheckExact(ITEM(net, C_POOL)) && PyTuple_CheckExact(ITEM(net, C_NODES));
    for (int i = C_FIXED; ok && i <= C_BW; i++) ok = PyFloat_CheckExact(ITEM(net, i));
    if (!ok)
        PyErr_SetString(PyExc_TypeError, "net is (sim, queue, pool, network, nodes, "
                                         "fixed, overhead, bw)");
    return ok;
}

static int node_ok(PyObject *t)
{
    int ok = t != NULL && PyTuple_CheckExact(t) && PyTuple_GET_SIZE(t) == N_LEN;
    for (int k = N_TXQ; ok && k <= N_RXR; k++)
        ok = Py_IS_TYPE(ITEM(t, k), &GrantFn_Type) &&
             GRANT(t, k)->release == (k == N_TXR || k == N_RXR);
    if (!ok && !PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "a node is (nic, tx.request, tx.release, "
                                         "rx.request, rx.release), each a GrantFn");
    return ok;
}

/* ob.<name> += n */
static int add_attr(PyObject *ob, PyObject *name, PyObject *n)
{
    PyObject *v = PyObject_GetAttr(ob, name);
    PyObject *s = v ? PyNumber_InPlaceAdd(v, n) : NULL;
    Py_XDECREF(v);
    int rc = s ? PyObject_SetAttr(ob, name, s) : -1;
    Py_XDECREF(s);
    return rc;
}

static int event_ok(PyObject *ev)
{
    if (ev == NULL || PyObject_TypeCheck(ev, (PyTypeObject *)EventType)) return ev != NULL;
    PyErr_Format(PyExc_TypeError, "expected an Event, got %R", ev);
    return 0;
}

static int move_wait(Move *m, PyObject *ev)
{
    return event_ok(ev) ? PyList_Append(SLOT(ev, off_callbacks), (PyObject *)m) : -1;
}

/* Release RX (if requested), then TX. */
static int move_release(Move *m)
{
    PyObject *r = Py_NewRef(Py_None);
    if (m->rx_req != NULL) Py_SETREF(r, grant_call(GRANT(m->d, N_RXR), m->rx_req));
    Py_CLEAR(m->rx_req);
    if (r != NULL && m->tx_req != NULL)
        Py_SETREF(r, grant_call(GRANT(m->s, N_TXR), m->tx_req));
    Py_CLEAR(m->tx_req);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

static Move *move_new(PyObject *net, Move *fan, int state)
{
    /* tp_alloc (PyType_GenericAlloc) zeroes and GC-tracks the object */
    Move *m = (Move *)Move_Type.tp_alloc(&Move_Type, 0);
    if (!m) return NULL;
    m->net = Py_NewRef(net);
    m->fan = (Move *)Py_XNewRef(fan);
    m->state = state;
    return m;
}

/* Step 1: issue the TX request, or, for a loopback move, push `landed`. */
static int move_launch(Move *m)
{
    BandHeap *q = (BandHeap *)ITEM(m->net, C_Q);
    if (m->s == m->d) {
        m->state = MV_WIRE;
        return bh_push(q, q->now + m->delay, 1 /* NORMAL */, m->landed);
    }
    m->state = MV_TX;
    m->tx_req = grant_call(GRANT(m->s, N_TXQ), NULL);
    return move_wait(m, m->tx_req);
}

/* The move src -> dst of nbytes: started, or, with a start hop (`hop`
 * 0 URGENT or 1 NORMAL; -1 for none), its hop pushed.  With `end` it
 * holds the pooled `done` Timeout that step 4 pushes. */
static Move *move_start(PyObject *net, Move *fan, PyObject *src, PyObject *dst,
                        PyObject *nbytes, long hop, int end)
{
    double nb = PyFloat_AsDouble(nbytes);
    if (nb == -1.0 && PyErr_Occurred()) return NULL;
    Move *m = move_new(net, fan, MV_OVER);
    if (!m) return NULL;
    PyObject *sim = ITEM(net, C_SIM), *pool = ITEM(net, C_POOL);
    m->nbytes = Py_NewRef(nbytes);
    /* nodes[src], as nics[src]: negative indexes, IndexError */
    m->s = PyObject_GetItem(ITEM(net, C_NODES), src);
    m->d = node_ok(m->s) ? PyObject_GetItem(ITEM(net, C_NODES), dst) : NULL;
    int rc = -1;
    if (node_ok(m->d)) {
        m->delay = m->s == m->d ? PyFloat_AS_DOUBLE(ITEM(net, C_OVERHEAD))
                                : PyFloat_AS_DOUBLE(ITEM(net, C_FIXED)) +
                                      nb / PyFloat_AS_DOUBLE(ITEM(net, C_BW));
        PyObject *delay = PyFloat_FromDouble(m->delay);
        if (delay) m->landed = pooled_timeout(sim, pool, delay, Py_None);
        Py_XDECREF(delay);
    }
    if (end && m->landed) m->done = pooled_timeout(sim, pool, float_zero, Py_None);
    if ((!end || m->done) && move_wait(m, m->landed) == 0) {
        if (hop < 0) {
            rc = move_launch(m);
        } else {
            BandHeap *q = (BandHeap *)ITEM(net, C_Q);
            PyObject *ev = pooled_timeout(sim, pool, float_zero, Py_None);
            m->state = MV_HOP;
            rc = ev && move_wait(m, ev) == 0 ? bh_push(q, q->now, hop, ev) : -1;
            Py_XDECREF(ev);
        }
    }
    if (rc < 0) {
        m->state = MV_OVER;
        Py_CLEAR(m);
    }
    return m;
}

/* Run the step of the event just processed.  0 ok, -1 error. */
static int move_step(Move *m)
{
    if (m->state == MV_OVER) return 0; /* landed or aborted: inert */
    BandHeap *q = (BandHeap *)ITEM(m->net, C_Q);
    switch (m->state) {
    case MV_HOP:
        return move_launch(m);
    case MV_TX:
        m->state = MV_RX;
        m->rx_req = grant_call(GRANT(m->d, N_RXQ), NULL);
        return move_wait(m, m->rx_req);
    case MV_RX:
        m->state = MV_WIRE;
        return bh_push(q, q->now + m->delay, 1 /* NORMAL */, m->landed);
    case MV_WIRE: {
        m->state = MV_OVER;
        Py_CLEAR(m->landed); /* the dispatch loop holds it */
        if (m->s != m->d &&
            (add_attr(ITEM(m->s, N_NIC), str_bytes_sent, m->nbytes) < 0 ||
             add_attr(ITEM(m->d, N_NIC), str_bytes_received, m->nbytes) < 0 ||
             move_release(m) < 0))
            return -1;
        if (add_attr(ITEM(m->net, C_NET), str_messages, long_one) < 0) return -1;
        Move *f = m->fan;
        m->fan = NULL;
        int rc = f && f->done && --f->left == 0 ? ev_succeed(q, f->done, Py_None, 1 /* NORMAL */) : 0;
        Py_XDECREF(f);
        if (rc == 0 && m->done != NULL) {
            rc = bh_push(q, q->now, 1 /* NORMAL */, m->done);
            Py_CLEAR(m->done); /* the queue and its waiter hold it */
        }
        return rc;
    }
    case MV_FAN: {
        PyObject *seq = PySequence_Fast(m->moves, "moves must be a sequence"), *src, *dst, *nb;
        m->state = MV_OVER;
        Py_CLEAR(m->moves);
        if (!seq) return -1;
        Py_ssize_t n = m->left = PySequence_Fast_GET_SIZE(seq);
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *t = PySequence_Fast_GET_ITEM(seq, i);
            Move *x = NULL;
            if (!PyTuple_Check(t))
                PyErr_SetString(PyExc_TypeError, "a move is a (src, dst, nbytes) tuple");
            else if (PyArg_ParseTuple(t, "OOO", &src, &dst, &nb))
                x = move_start(m->net, m, src, dst, nb, -1, 0);
            if (!x) {
                Py_DECREF(seq);
                return -1;
            }
            Py_DECREF(x);
        }
        Py_DECREF(seq);
        return 0;
    }
    }
    return 0;
}

static int Move_traverse(Move *m, visitproc visit, void *arg)
{
    Py_VISIT(m->net);
    Py_VISIT((PyObject *)m->fan);
    Py_VISIT(m->s);
    Py_VISIT(m->d);
    Py_VISIT(m->nbytes);
    Py_VISIT(m->tx_req);
    Py_VISIT(m->rx_req);
    Py_VISIT(m->landed);
    Py_VISIT(m->moves);
    Py_VISIT(m->done);
    return 0;
}

static int Move_clear(Move *m)
{
    m->state = MV_OVER;
    Py_CLEAR(m->net);
    Py_CLEAR(m->fan);
    Py_CLEAR(m->s);
    Py_CLEAR(m->d);
    Py_CLEAR(m->nbytes);
    Py_CLEAR(m->tx_req);
    Py_CLEAR(m->rx_req);
    Py_CLEAR(m->landed);
    Py_CLEAR(m->moves);
    Py_CLEAR(m->done);
    return 0;
}

static void Move_dealloc(Move *m)
{
    PyObject_GC_UnTrack(m);
    Move_clear(m);
    Py_TYPE(m)->tp_free((PyObject *)m);
}

/* abort(): release RX, then TX (cancelling a queued request); inert
 * after, so a pending start hop starts nothing and `done` is never
 * pushed.  Once landed (`done` pushed, if any) it does nothing. */
static PyObject *Move_abort(Move *m, PyObject *noarg)
{
    if (m->state != MV_OVER && m->state != MV_FAN) {
        m->state = MV_OVER;
        Py_CLEAR(m->landed);
        Py_CLEAR(m->fan);
        Py_CLEAR(m->done);
        if (move_release(m) < 0) return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef Move_methods[] = {
    {"abort", (PyCFunction)Move_abort, METH_NOARGS, "release RX, then TX; go inert"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Move_members[] = {
    {"landed", T_OBJECT, offsetof(Move, landed), READONLY, "processed once landed"},
    {"done", T_OBJECT, offsetof(Move, done), READONLY,
     "the end hop, processed after landing (None without one)"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject Move_Type = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.sim._cq.Move",
    .tp_basicsize = sizeof(Move),
    .tp_dealloc = (destructor)Move_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Move_traverse,
    .tp_clear = (inquiry)Move_clear,
    .tp_methods = Move_methods,
    .tp_members = Move_members,
};

/* move(net, src, dst, nbytes, start, end) -> a started Move, or one whose
 * start hop (start: None, URGENT 0 or NORMAL 1) is pushed */
static PyObject *mod_move(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6 || !net_ok(args[0])) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "move(net, src, dst, nbytes, start, end)");
        return NULL;
    }
    long hop = args[4] == Py_None ? -1 : PyLong_AsLong(args[4]);
    int end = PyObject_IsTrue(args[5]);
    if ((hop == -1 && PyErr_Occurred()) || end < 0) return NULL;
    if (hop < -1 || hop > 1) {
        PyErr_SetString(PyExc_ValueError, "start is None, URGENT (0) or NORMAL (1)");
        return NULL;
    }
    return (PyObject *)move_start(args[0], NULL, args[1], args[2], args[3], hop, end);
}

/* fan(net, moves, done) -> the callback of transfer_all's urgent hop */
static PyObject *mod_fan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3 || !net_ok(args[0]) || !event_ok(args[2])) {
        if (!PyErr_Occurred()) PyErr_SetString(PyExc_TypeError, "fan(net, moves, done)");
        return NULL;
    }
    Move *f = move_new(args[0], NULL, MV_FAN);
    if (f) {
        f->moves = Py_NewRef(args[1]);
        f->done = Py_NewRef(args[2]);
    }
    return (PyObject *)f;
}

/* --------------------------------------------------------------- drivers */

/* The kernel's flag slots (_ok, _triggered, _processed, _defused) only
 * ever hold True or False, so `if flag:` is a pointer compare here. */

/* Process._resume(event) for a process `w` of the driven simulator,
 * including the live-event branch of _resume_tail.  0 ok, -1 error. */
static int resume_proc(PyObject *sim, BandHeap *q, PyObject *w, PyObject *event)
{
    if (PyObject_SetAttr(sim, str_active, w) < 0) return -1;
    slot_set(w, off_target, Py_NewRef(Py_None));
    PyObject *value = Py_NewRef(SLOT(event, off_value));
    PyObject *result = NULL;
    PySendResult st;
    if (SLOT(event, off_ok) == Py_True) {
        PyObject *gen = SLOT(w, off_gen);
        if (PyGen_CheckExact(gen)) {
            /* gen.send(value) without the StopIteration round trip */
            st = PyIter_Send(gen, value, &result);
        } else {
            result = PyObject_CallOneArg(SLOT(w, off_send), value);
            st = result ? PYGEN_NEXT : PYGEN_ERROR;
        }
    } else {
        slot_set(event, off_defused, Py_NewRef(Py_True));
        result = PyObject_CallOneArg(SLOT(w, off_throw), value);
        st = result ? PYGEN_NEXT : PYGEN_ERROR;
    }
    /* Take the generator's exception *before* resetting _active: the
     * attribute store may run a type lookup, and a type-cache miss
     * clears any pending exception. */
    PyObject *etype = NULL, *evalue = NULL, *etb = NULL;
    if (st == PYGEN_ERROR) PyErr_Fetch(&etype, &evalue, &etb);
    Py_DECREF(value);
    if (PyObject_SetAttr(sim, str_active, Py_None) < 0) {
        Py_XDECREF(result);
        Py_XDECREF(etype);
        Py_XDECREF(evalue);
        Py_XDECREF(etb);
        return -1;
    }
    int rc;
    if (st != PYGEN_NEXT) /* finished: drop the bound self-reference */
        slot_set(w, off_resume_cb, Py_NewRef(Py_None));
    if (st == PYGEN_RETURN) {
        rc = ev_succeed(q, w, result, 0 /* URGENT */);
        Py_DECREF(result);
        return rc;
    }
    if (st == PYGEN_ERROR) {
        PyErr_NormalizeException(&etype, &evalue, &etb);
        if (PyErr_GivenExceptionMatches(etype, PyExc_StopIteration)) {
            PyObject *retval = PyObject_GetAttrString(evalue, "value");
            rc = retval ? ev_succeed(q, w, retval, 0 /* URGENT */) : -1;
            Py_XDECREF(retval);
        } else {
            /* mirror `except BaseException: self.fail(exc, URGENT)` */
            if (etb != NULL) PyException_SetTraceback(evalue, etb);
            PyObject *r = PyObject_CallMethodObjArgs(w, str_fail, evalue,
                                                     long_urgent, NULL);
            rc = r ? 0 : -1;
            Py_XDECREF(r);
        }
        Py_XDECREF(etype);
        Py_XDECREF(evalue);
        Py_XDECREF(etb);
        return rc;
    }
    /* yielded a pending event of this simulator: wait on it */
    PyObject *rcbs;
    if ((Py_TYPE(result) == (PyTypeObject *)TimeoutType ||
         PyObject_TypeCheck(result, (PyTypeObject *)EventType)) &&
        SLOT(result, off_sim) == sim &&
        (rcbs = SLOT(result, off_callbacks)) != NULL && PyList_CheckExact(rcbs)) {
        if (PyList_Append(rcbs, SLOT(w, off_resume_cb)) < 0) {
            Py_DECREF(result);
            return -1;
        }
        if (SLOT(result, off_ok) != Py_True)
            slot_set(result, off_defused, Py_NewRef(Py_True));
        slot_set(w, off_target, result); /* steals the reference */
        return 0;
    }
    PyObject *r = PyObject_CallMethodOneArg(w, str_resume_tail, result);
    Py_DECREF(result);
    Py_XDECREF(r);
    return r ? 0 : -1;
}

/* Dispatch one event: Event._process (Simulator._drive's inlined copy
 * for Timeouts) plus the Timeout pool step.  Every bound Process._resume
 * callback of this simulator runs through resume_proc; any other
 * callback is called.  0 ok, -1 error. */
static int dispatch_one(PyObject *sim, BandHeap *q, PyObject *pool,
                        PyObject *event /* borrowed */)
{
    int is_timeout = Py_TYPE(event) == (PyTypeObject *)TimeoutType;
    PyObject *cbs = SLOT(event, off_callbacks);
    if (cbs == NULL || !PyList_CheckExact(cbs) ||
        (!is_timeout && _PyType_Lookup(Py_TYPE(event), str_process) != process_func)) {
        /* processed twice, or a subclass's own _process */
        PyObject *r = PyObject_CallMethodNoArgs(event, str_process);
        if (!r) return -1;
        Py_DECREF(r);
        goto done;
    }
    SLOT(event, off_callbacks) = Py_NewRef(Py_None); /* we own `cbs` now */
    slot_set(event, off_processed, Py_NewRef(Py_True));
    int rc = 0;
    /* size re-read every iteration, as `for cb in callbacks` does */
    for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = Py_NewRef(PyList_GET_ITEM(cbs, i));
        PyObject *w;
        if (PyMethod_Check(cb) && PyMethod_GET_FUNCTION(cb) == resume_func &&
            PyObject_TypeCheck((w = PyMethod_GET_SELF(cb)),
                               (PyTypeObject *)ProcessType) &&
            SLOT(w, off_sim) == sim) {
            rc = resume_proc(sim, q, w, event);
        } else if (Py_TYPE(cb) == &Move_Type) {
            rc = move_step((Move *)cb);
        } else if (Py_TYPE(cb) == (PyTypeObject *)TimeoutType) {
            rc = bh_push(q, q->now, 1 /* NORMAL */, cb); /* Timeout.__call__ */
        } else {
            PyObject *r = PyObject_CallOneArg(cb, event);
            rc = r ? 0 : -1;
            Py_XDECREF(r);
        }
        Py_DECREF(cb);
    }
    Py_DECREF(cbs);
    if (rc < 0) return -1;
    if (!is_timeout && SLOT(event, off_ok) != Py_True &&
        SLOT(event, off_defused) != Py_True) {
        /* an un-waited-for failure: `raise self._value` */
        PyObject *exc = SLOT(event, off_value);
        if (PyExceptionInstance_Check(exc))
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        else
            PyErr_SetString(PyExc_TypeError,
                            "exceptions must derive from BaseException");
        return -1;
    }
done:
    if (is_timeout && Py_REFCNT(event) == 1 && PyList_GET_SIZE(pool) < POOL_MAX)
        return PyList_Append(pool, event);
    return 0;
}

/* drive(sim, queue, pool, limit, target, budget) -> (n, drained): the
 * loop of Simulator._drive.  Dispatches cohorts in order and stops when
 * the schedule drains (drained=True), when the next cohort lies beyond
 * `limit`, once `target` (None for no target) has been processed, or
 * once `budget` events have run (0 = no budget).  `n` counts the
 * dispatched events. */
static PyObject *mod_drive(PyObject *self, PyObject *args)
{
    PyObject *sim, *qo, *pool, *target;
    double limit;
    Py_ssize_t budget;
    if (!PyArg_ParseTuple(args, "OO!O!dOn", &sim, &BandHeap_Type, &qo,
                          &PyList_Type, &pool, &limit, &target, &budget))
        return NULL;
    BandHeap *q = (BandHeap *)qo;
    if (target == Py_None) target = NULL;
    Py_ssize_t n = 0;
    int drained = 0;
    while (target == NULL || SLOT(target, off_processed) != Py_True) {
        if (!bh_pop_cohort(q)) {
            drained = 1;
            break;
        }
        double t = q->active_t;
        long prio = q->active_prio;
        PyObject *events = q->active_list;
        if (t > limit) {
            if (bh_requeue_front(q, t, prio, events) < 0) return NULL;
            break;
        }
        q->now = t;
        PyObject *tf = PyFloat_FromDouble(t);
        if (!tf) return NULL;
        int sa = PyObject_SetAttr(sim, str_now, tf);
        Py_DECREF(tf);
        if (sa < 0) return NULL;
        Py_INCREF(events); /* hold across dispatch (preempt may drop q's ref) */
        Py_ssize_t i = 0;
        int stop = 0;
        /* size re-read every iteration: a preempting push clears the list */
        while (!stop && i < PyList_GET_SIZE(events)) {
            PyObject *event = PyList_GET_ITEM(events, i);
            Py_INCREF(event);
            Py_INCREF(Py_None);
            PyList_SetItem(events, i, Py_None);
            i++;
            if (dispatch_one(sim, q, pool, event) < 0) {
                Py_DECREF(event);
                /* keep the queue consistent for a caller that catches */
                PyObject *etype, *evalue, *etb;
                PyErr_Fetch(&etype, &evalue, &etb);
                bh_requeue_front(q, t, prio, events);
                PyErr_Restore(etype, evalue, etb);
                Py_DECREF(events);
                return NULL;
            }
            Py_DECREF(event);
            n++;
            stop = (budget && n >= budget) ||
                   (target != NULL && SLOT(target, off_processed) == Py_True);
        }
        if (stop && bh_requeue_front(q, t, prio, events) < 0) {
            Py_DECREF(events);
            return NULL;
        }
        Py_DECREF(events);
        if (stop) break;
    }
    return Py_BuildValue("(nO)", n, drained ? Py_True : Py_False);
}

static PyMethodDef mod_methods[] = {
    {"setup", mod_setup, METH_VARARGS,
     "setup(Event, Timeout, Process, SimulationError): resolve slot offsets"},
    {"make_timeout", mod_make_timeout, METH_VARARGS,
     "make_timeout(sim, queue, pool_or_None, hop=0) -> fast sim.timeout "
     "(hop 1: sim.urgent_hop; hop 2: sim.hop_after) callable"},
    {"make_grant", mod_make_grant, METH_VARARGS,
     "make_grant(resource, queue, Request, python_method, release) -> fast "
     "request() or release(req) of a capacity-1 Resource"},
    {"move", (PyCFunction)(void (*)(void))mod_move, METH_FASTCALL,
     "move(net, src, dst, nbytes, start, end) -> Move: one message, its TX "
     "request issued or its start hop pushed"},
    {"fan", (PyCFunction)(void (*)(void))mod_fan, METH_FASTCALL,
     "fan(net, moves, done) -> callback that starts the moves in order"},
    {"drive", mod_drive, METH_VARARGS,
     "drive(sim, queue, pool, limit, target_or_None, budget) -> (n, drained)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cq_module = {
    PyModuleDef_HEAD_INIT, "repro.sim._cq",
    "C accelerator for the repro.sim event kernel", -1, mod_methods,
};

PyMODINIT_FUNC PyInit__cq(void)
{
    PyObject *m = PyModule_Create(&cq_module);
    if (!m) return NULL;
    if (PyType_Ready(&BandHeap_Type) < 0) return NULL;
    if (PyType_Ready(&TimeoutFn_Type) < 0) return NULL;
    if (PyType_Ready(&GrantFn_Type) < 0) return NULL;
    if (PyType_Ready(&Move_Type) < 0) return NULL;
    Py_INCREF(&BandHeap_Type);
    if (PyModule_AddObject(m, "BandHeap", (PyObject *)&BandHeap_Type) < 0) return NULL;
    if (PyModule_AddIntConstant(m, "API_VERSION", 7) < 0) return NULL;
    return m;
}
