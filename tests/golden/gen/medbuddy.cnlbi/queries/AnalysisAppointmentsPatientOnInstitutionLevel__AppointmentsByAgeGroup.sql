-- RollUp: AnalysisAppointmentsPatientOnInstitutionLevel / AppointmentsByAgeGroup
-- rolling up the data to visualise the number of appointments per patient's age group
SELECT "j_patient"."age" AS "Patient.age",
       COUNT("f"."id") AS "CountAppointments",
       COUNT(CASE WHEN "j_state"."name" = 'Cancelled' THEN 1 END) AS "CountCancelledAppointments",
       (CAST(COUNT(CASE WHEN "j_state"."name" = 'Cancelled' THEN 1 END) AS REAL) / NULLIF(COUNT("f"."id"), 0)) AS "CancellationRate",
       AVG("f"."actual_response_time") AS "AvgWaitingTime",
       MIN("j_scheduled_date"."date") AS "MinDate",
       MAX("j_scheduled_date"."date") AS "MaxDate"
FROM "AppointmentRequest" "f"
JOIN "Patient" "j_patient" ON "f"."patient" = "j_patient"."id"
JOIN "Time" "j_scheduled_date" ON "f"."scheduled_date" = "j_scheduled_date"."id"
JOIN "RequestState" "j_state" ON "f"."state" = "j_state"."id"
GROUP BY "j_patient"."age"
ORDER BY "j_patient"."age";
